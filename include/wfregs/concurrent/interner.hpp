// A lock-free open-addressing interner: word-sequence keys -> exactly-once
// constructed payloads, replacing the parallel explorer's 64 mutex-striped
// (ConfigInterner, arena) shard pairs.
//
// CLAIM PROTOCOL (the two-phase publication the tests race):
//
//   1. RESERVE  -- CAS the probe slot empty -> kReserved.  Losing the CAS
//      is not a failure: the loser re-examines the slot (its winner is
//      either this key -- wait for publication and share it -- or a
//      different key -- keep probing) and bumps cas_retries.
//   2. WRITE    -- the winner allocates the node (header + payload + the
//      key words inline, one allocation) and fills it while the slot still
//      reads kReserved; concurrent probers for the same hash spin on the
//      reserved slot (publication is two stores away -- bounded).
//   3. PUBLISH  -- store the node pointer into the slot.  From here the
//      key's payload address is stable for the interner's lifetime.
//
// GROWTH keeps inserts lock-free without migrating keys: tables form a
// chain, newest first.  Keys already published stay in the table they were
// published in, and every lookup probes the chain newest -> oldest
// (O(log n) tables, the newest holding most keys).  A table is SEALED by
// one CAS that links its double-size successor (`next`: nullptr -> table);
// the seal and the successor become visible together, so a thread that
// finds a table sealed also finds where to go next and never waits on the
// sealing thread.  Two events seal the current table:
//
//   * the publication that brings it to ~60% load (exactly one claimer sees
//     `used` reach `grow_at`, so one successor is normally allocated);
//   * a claim that scans the whole table and finds neither its key nor an
//     empty slot (the grower above is slow, or stragglers that passed the
//     seal check before the seal filled the rest).  Such a claimer seals
//     the table itself; if another CAS linked a successor first, it frees
//     its own copy and takes that one.
//
// Whoever links a successor, and every thread that meets a sealed current
// table, CASes `current_` forward from that table to its successor, so
// `current_` walks the chain one link at a time and, once the callers have
// returned, names the newest table.  A claimer that won its CAS in a table
// that turned out sealed converts the reservation into a TOMBSTONE (probers
// skip it, probes continue past it) and retries in the successor.
//
// EVERY PROBE ENDS.  Slots only move forward (empty -> reserved ->
// node | tombstone), so a full table never frees a slot again; probing
// therefore cannot rely on reaching an empty slot.  search() and claim()
// visit at most capacity slots -- the linear probe sequence covers every
// slot exactly once in that many steps, so the bound loses no key.  A
// search that runs out reports "absent here"; a claim that runs out seals
// the table and returns the retry signal.  The only other wait is on a
// reservation met along the way, which its owner resolves within two
// stores.
//
// EXACTLY ONCE.  Slot operations on the claim path, the `next` links and
// `current_` are seq_cst, and a claim in a table happens only after the
// chain below it was searched.  For two racing inserters of the same key
// either (a) both claim in the same table -- same hash, same probe
// sequence; every slot before the first one's reservation was non-empty
// when it reserved, so the second one's bounded scan reaches that
// reservation and waits, and it can give up on the table only after its
// scan passed that slot -- or (b) they claim in different tables.  The
// newer-table claimer loaded that table from `current_`, so after the
// older table's `next` was linked, and searched the older table after
// that.  The older-table claimer loads `next` after its reservation CAS:
// if the load read nullptr, its reservation precedes the link and the
// newer-table claimer's search meets it; if the load saw the link, it
// retires its reservation and retries in the successor.  Either way
// exactly one node per distinct key is ever published, which is what keeps
// the explorer's `configs` counter (one fetch_add per inserted == true)
// exact.
//
// DELETION does not exist (the explorer only ever adds configurations), so
// there is no ABA and no reclamation problem: nodes and superseded tables
// are freed by the destructor, single-threaded, after the workers joined.
// A successor that lost the linking CAS was never visible and is freed at
// once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>

#include "wfregs/concurrent/cacheline.hpp"
#include "wfregs/concurrent/contention.hpp"

namespace wfregs::concurrent {

/// Value: the per-key payload, default-constructed exactly once by the
/// claiming thread (phase 2) before the key becomes visible.  Its address
/// is stable until the interner is destroyed.
template <class Value>
class ConcurrentInterner {
 public:
  struct Ref {
    Value* value = nullptr;
    bool inserted = false;  ///< this call claimed the key
  };

  explicit ConcurrentInterner(std::size_t initial_slots = 1u << 12)
      : current_(new Table(round_up(initial_slots), nullptr)) {}

  ConcurrentInterner(const ConcurrentInterner&) = delete;
  ConcurrentInterner& operator=(const ConcurrentInterner&) = delete;

  ~ConcurrentInterner() {
    Table* t = current_.load(std::memory_order_relaxed);
    while (t != nullptr) {
      for (std::size_t i = 0; i <= t->mask; ++i) {
        Node* n = t->slots[i].load(std::memory_order_relaxed);
        if (is_node(n)) destroy_node(n);
      }
      Table* prev = t->prev;
      delete t;
      t = prev;
    }
  }

  /// The payload of `words` (whose hash is `hash`), claiming it when
  /// absent; `c.cas_retries` counts lost reservations.  Safe from any
  /// number of threads.
  Ref intern(std::span<const std::uint64_t> words, std::uint64_t hash,
             ContentionCounters& c) {
    for (;;) {
      Table* head = current_.load(std::memory_order_seq_cst);
      if (Table* succ = head->next.load(std::memory_order_seq_cst)) {
        // head is sealed: help current_ past it and start over.
        current_.compare_exchange_strong(head, succ, std::memory_order_seq_cst);
        continue;
      }
      // Keys can live in any table of the chain; older tables are sealed,
      // so a key found there is fully published and final.
      for (Table* t = head->prev; t != nullptr; t = t->prev) {
        if (Node* n = search(*t, words, hash)) return Ref{&n->value, false};
      }
      const Ref r = claim(*head, words, hash, c);
      if (r.value != nullptr) return r;
      // head got sealed (by another thread or by this claim); go again.
    }
  }

  /// Lookup without claiming; nullptr when absent.
  Value* find(std::span<const std::uint64_t> words,
              std::uint64_t hash) const {
    for (Table* t = current_.load(std::memory_order_seq_cst); t != nullptr;
         t = t->prev) {
      if (Node* n = search(*t, words, hash)) return &n->value;
    }
    return nullptr;
  }

  /// Number of distinct keys published.
  std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Bytes held by slot tables and published nodes (bench accounting).
  std::size_t memory_bytes() const {
    std::size_t total = node_bytes_.load(std::memory_order_relaxed);
    for (Table* t = current_.load(std::memory_order_acquire); t != nullptr;
         t = t->prev) {
      total += (t->mask + 1) * sizeof(std::atomic<Node*>) + sizeof(Table);
    }
    return total;
  }

 private:
  struct Node {
    std::uint64_t hash;
    std::uint32_t nwords;
    Value value;
    // The key words live immediately after the node (one allocation).
    std::uint64_t* words() {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
    const std::uint64_t* words() const {
      return reinterpret_cast<const std::uint64_t*>(this + 1);
    }
  };
  static_assert(alignof(Node) % alignof(std::uint64_t) == 0);

  struct Table {
    Table(std::size_t cap, Table* prev_table)
        : mask(cap - 1), grow_at((cap * 6 + 9) / 10), prev(prev_table),
          slots(std::make_unique<std::atomic<Node*>[]>(cap)) {}
    const std::size_t mask;
    const std::size_t grow_at;  ///< publications that seal (~60% load)
    Table* const prev;
    std::atomic<Table*> next{nullptr};  ///< successor; non-null == sealed
    alignas(kCacheLine) std::atomic<std::size_t> used{0};
    std::unique_ptr<std::atomic<Node*>[]> slots;
  };

  // Sentinel slot states.  Real nodes are aligned pointers > kTombstone.
  static Node* reserved_sentinel() { return reinterpret_cast<Node*>(1); }
  static Node* tombstone_sentinel() { return reinterpret_cast<Node*>(2); }
  static bool is_node(const Node* p) {
    return p != nullptr && p != reserved_sentinel() &&
           p != tombstone_sentinel();
  }

  static std::size_t round_up(std::size_t n) {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  static bool key_equals(const Node& n, std::span<const std::uint64_t> words,
                         std::uint64_t hash) {
    if (n.hash != hash || n.nwords != words.size()) return false;
    const std::uint64_t* w = n.words();
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (w[i] != words[i]) return false;
    }
    return true;
  }

  Node* make_node(std::span<const std::uint64_t> words, std::uint64_t hash) {
    const std::size_t bytes =
        sizeof(Node) + words.size() * sizeof(std::uint64_t);
    void* raw = ::operator new(bytes, std::align_val_t{alignof(Node)});
    Node* n = new (raw) Node{hash, static_cast<std::uint32_t>(words.size()),
                             Value{}};
    std::uint64_t* w = n->words();
    for (std::size_t i = 0; i < words.size(); ++i) w[i] = words[i];
    node_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return n;
  }

  static void destroy_node(Node* n) {
    n->~Node();
    ::operator delete(static_cast<void*>(n),
                      std::align_val_t{alignof(Node)});
  }

  /// Published node for `words` in `t`, or nullptr.  Waits out in-flight
  /// reservations met along the probe path (publication is imminent).
  /// Visits at most every slot once, so a full table ends the probe too.
  static Node* search(const Table& t, std::span<const std::uint64_t> words,
                      std::uint64_t hash) {
    std::size_t slot = static_cast<std::size_t>(hash) & t.mask;
    for (std::size_t probes = 0; probes <= t.mask;
         ++probes, slot = (slot + 1) & t.mask) {
      Node* n = t.slots[slot].load(std::memory_order_seq_cst);
      while (n == reserved_sentinel()) {
        // Mid-publication: the claimer is two stores from done (or about
        // to tombstone); either outcome resolves the slot.
        n = t.slots[slot].load(std::memory_order_seq_cst);
      }
      if (n == nullptr) return nullptr;  // probe chain ends: absent here
      if (n == tombstone_sentinel()) continue;
      if (key_equals(*n, words, hash)) return n;
    }
    return nullptr;  // every slot holds another key or a tombstone
  }

  /// Claims or finds `words` in `head`.  Ref.value == nullptr means `head`
  /// is sealed (found so, or sealed here because no slot is left): caller
  /// must retry on the successor.
  Ref claim(Table& head, std::span<const std::uint64_t> words,
            std::uint64_t hash, ContentionCounters& c) {
    std::size_t slot = static_cast<std::size_t>(hash) & head.mask;
    for (std::size_t probes = 0; probes <= head.mask;
         ++probes, slot = (slot + 1) & head.mask) {
      Node* cur = head.slots[slot].load(std::memory_order_seq_cst);
      if (cur == nullptr) {
        Node* expected = nullptr;
        if (head.slots[slot].compare_exchange_strong(
                expected, reserved_sentinel(), std::memory_order_seq_cst,
                std::memory_order_seq_cst)) {
          if (head.next.load(std::memory_order_seq_cst) != nullptr) {
            // A successor was linked before our reservation became the
            // key's home; retire the slot and move to the successor.
            head.slots[slot].store(tombstone_sentinel(),
                                   std::memory_order_seq_cst);
            return Ref{nullptr, false};
          }
          Node* n = nullptr;
          try {
            n = make_node(words, hash);
          } catch (...) {
            // Never leave a reservation behind: probers spin on it.
            head.slots[slot].store(tombstone_sentinel(),
                                   std::memory_order_seq_cst);
            throw;
          }
          head.slots[slot].store(n, std::memory_order_seq_cst);
          count_.fetch_add(1, std::memory_order_acq_rel);
          maybe_grow(head);
          return Ref{&n->value, true};
        }
        c.cas_retries += 1;
        cur = expected;  // re-examine whatever beat us
      }
      while (cur == reserved_sentinel()) {
        cur = head.slots[slot].load(std::memory_order_seq_cst);
      }
      if (cur == tombstone_sentinel()) continue;
      if (key_equals(*cur, words, hash)) return Ref{&cur->value, false};
    }
    // No empty slot and no match: `words` is not in head, and head can
    // take no further key.
    seal(head);
    return Ref{nullptr, false};
  }

  void maybe_grow(Table& head) {
    // Grow at ~60% load so probe chains stay short under contention.
    // Exactly one publication brings `used` to grow_at.
    if (head.used.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        head.grow_at) {
      seal(head);
    }
  }

  /// Links a successor to `t` unless one is linked already, then moves
  /// current_ past `t`.
  void seal(Table& t) {
    Table* succ = t.next.load(std::memory_order_seq_cst);
    if (succ == nullptr) {
      auto fresh = std::make_unique<Table>((t.mask + 1) * 2, &t);
      if (t.next.compare_exchange_strong(succ, fresh.get(),
                                         std::memory_order_seq_cst)) {
        succ = fresh.release();
      }  // else another seal won; succ now holds its successor
    }
    Table* expected = &t;
    current_.compare_exchange_strong(expected, succ,
                                     std::memory_order_seq_cst);
  }

  std::atomic<Table*> current_;
  alignas(kCacheLine) std::atomic<std::size_t> count_{0};
  alignas(kCacheLine) std::atomic<std::size_t> node_bytes_{0};
};

}  // namespace wfregs::concurrent
