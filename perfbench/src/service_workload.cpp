// service-mix: a real wfregsd on a Unix socket, driven in a closed loop by
// client connections in this process.  Each round submits every catalogue
// job once plus seeded repeats, so the cold work of a round is the same for
// every seed and the repeats are cache hits or coalesce onto a running job.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>

#include "wfregs/consensus/protocols.hpp"
#include "wfregs/registers/mrsw.hpp"
#include "wfregs/registers/snapshot.hpp"
#include "wfregs/service/client.hpp"
#include "wfregs/service/metrics.hpp"
#include "wfregs/typesys/type_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = wfregs::service;
using wfregs::Reduction;

namespace {

constexpr int kDrawsPerRound = 240;
/// Sleep between two polls of a job that is queued or running.
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr double kMiB = 1024.0 * 1024.0;

struct Entry {
  BenchJob bench;
  std::string text;
  /// Index of the same implementation and reduction with static_power
  /// flipped (consensus entries), or -1.
  int twin = -1;
};

std::vector<Entry> build_catalogue() {
  using namespace wfregs::consensus;
  struct Protocol {
    std::string name;
    std::shared_ptr<const wfregs::Implementation> impl;
    int n;
    bool solves;
  };
  std::vector<Protocol> protocols = {
      {"tas", from_test_and_set(), 2, true},
      {"queue", from_queue(), 2, true},
      {"faa", from_fetch_and_add(), 2, true},
  };
  // cas_ids and the register-only attempt stop at n = 3: at n = 4 each
  // takes 40-90 ms cold, and cold exploration would then dominate the
  // daemon's busy time instead of sitting beside the warm path.
  for (int n = 2; n <= 4; ++n) {
    const std::string s = std::to_string(n);
    protocols.push_back({"cas" + s, from_cas(n), n, true});
    protocols.push_back({"sticky" + s, from_sticky_bit(n), n, true});
    protocols.push_back({"shift" + s, from_shift_register(n), n, true});
    if (n == 4) continue;
    protocols.push_back({"cas_ids" + s, from_cas_ids(n), n, true});
    protocols.push_back({"registers_only" + s, registers_only_attempt(n), n,
                         false});
  }
  const std::pair<Reduction, std::string> reductions[] = {
      {Reduction::kNone, "none"},
      {Reduction::kSleep, "sleep"},
      {Reduction::kSleepSymmetry, "symmetry"}};
  std::vector<Entry> out;
  for (const Protocol& p : protocols) {
    for (const auto& [reduction, rname] : reductions) {
      for (const bool static_power : {false, true}) {
        Entry e;
        e.bench.name = p.name + "/" + rname + (static_power ? "/static" : "");
        e.bench.job.kind = service::JobKind::kConsensus;
        e.bench.job.impl = p.impl;
        e.bench.job.options.reduction = reduction;
        e.bench.job.static_power = static_power;
        e.bench.expect_ok = p.solves;
        e.bench.roots = 1 << p.n;
        e.bench.processes = p.n;
        e.twin = static_cast<int>(out.size()) + (static_power ? -1 : 1);
        out.push_back(std::move(e));
      }
    }
  }
  // Linearizability of the register constructions: 2-port snapshots (large
  // job texts) and small MRSW registers.
  const auto lin = [&](const std::string& name,
                       std::shared_ptr<const wfregs::Implementation> impl,
                       std::vector<std::vector<wfregs::InvId>> scripts) {
    for (const auto& [reduction, rname] : reductions) {
      Entry e;
      e.bench.name = name + "/" + rname;
      e.bench.job.kind = service::JobKind::kLinearizable;
      e.bench.job.impl = impl;
      e.bench.job.scripts = scripts;
      e.bench.job.options.reduction = reduction;
      out.push_back(std::move(e));
    }
  };
  const wfregs::zoo::SnapshotLayout snap{2, 2};
  const auto snapshot = wfregs::registers::snapshot_from_registers(2, 2, 1);
  lin("snapshot_u_s", snapshot, {{snap.update(1)}, {snap.scan()}});
  lin("snapshot_us_s", snapshot, {{snap.update(1), snap.scan()}, {snap.scan()}});
  const wfregs::zoo::MrswRegisterLayout reg{2, 2};
  lin("mrsw_atomic", wfregs::registers::mrsw_register(2, 2, 0, 1),
      {{reg.read()}, {reg.read()}, {reg.write(1)}});
  const wfregs::zoo::MrswRegisterLayout reg1{2, 1};
  lin("mrsw1_simpson",
      wfregs::registers::mrsw_register(
          2, 1, 0, 2, wfregs::registers::simpson_srsw_factory()),
      {{reg1.read(), reg1.read()}, {reg1.write(1), reg1.write(0)}});
  return out;
}

/// The value of `"field":` in a flat JSON reply, up to the next , or }.
std::string json_raw(const std::string& json, const std::string& field,
                     std::size_t from = 0) {
  const std::string pat = "\"" + field + "\":";
  const std::size_t at = json.find(pat, from);
  if (at == std::string::npos) return {};
  std::size_t b = at + pat.size();
  std::size_t e = b;
  if (json[b] == '"') {
    e = json.find('"', b + 1);
    return e == std::string::npos ? std::string{} : json.substr(b + 1, e - b - 1);
  }
  while (e < json.size() && json[e] != ',' && json[e] != '}') ++e;
  return json.substr(b, e - b);
}

/// The verdict object of a submit or poll reply ("verdict" is its last
/// field), or empty.
std::string verdict_of(const std::string& reply) {
  const std::size_t at = reply.find("\"verdict\":");
  if (at == std::string::npos || reply.size() < at + 11) return {};
  return reply.substr(at + 10, reply.size() - at - 11);
}

/// Rebuilds the checked fields of a verdict from its JSON.
service::Verdict parse_verdict(const std::string& json,
                               service::JobKind kind) {
  service::Verdict v;
  v.kind = kind;
  v.ok = json_raw(json, "ok") == "true";
  v.wait_free = json_raw(json, "wait_free") == "true";
  v.complete = json_raw(json, "complete") == "true";
  v.provenance = json_raw(json, "provenance") == "static"
                     ? service::Provenance::kStatic
                     : service::Provenance::kExplored;
  v.detail = json_raw(json, "detail");
  const std::size_t stats = json.find("\"stats\":");
  const auto num = [&](const char* f) {
    const std::string s = json_raw(json, f, stats);
    return s.empty() ? std::uint64_t{0} : std::stoull(s);
  };
  v.stats.configs = num("configs");
  v.stats.edges = num("edges");
  v.stats.terminals = num("terminals");
  v.stats.interned_configs = num("interned_configs");
  v.stats.depth = static_cast<int>(num("depth"));
  return v;
}

/// wfregsd as a child process; the destructor kills and reaps it if the run
/// did not shut it down.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& stdout_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive a benchmark process that is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) dup2(fd, STDOUT_FILENO);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool exited() {
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
    return pid_ <= 0;
  }

  /// Waits up to `limit` for a requested exit, then kills.  True when the
  /// daemon exited by itself.
  bool reap(std::chrono::seconds limit) {
    const Clock::time_point t0 = Clock::now();
    while (!exited()) {
      if (Clock::now() - t0 > limit) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

 private:
  pid_t pid_ = -1;
};

/// What one submission saw.
struct Outcome {
  int entry = 0;
  bool cached = false;
  std::string status;
  std::string verdict_json;
  double latency_ms = 0;
  std::uint64_t polls = 0;
  std::uint64_t reply_bytes = 0;
};

Outcome submit_and_wait(service::Client& client, const std::string& text,
                        int entry) {
  Outcome out;
  out.entry = entry;
  const Clock::time_point t0 = Clock::now();
  std::string reply = client.submit(text);
  out.reply_bytes += reply.size();
  out.status = json_raw(reply, "status");
  out.cached = out.status == "cached";
  if (out.status == "queued" || out.status == "coalesced") {
    const std::string key = json_raw(reply, "key");
    do {
      std::this_thread::sleep_for(kPollInterval);
      reply = client.poll(key);
      out.reply_bytes += reply.size();
      out.polls += 1;
      out.status = json_raw(reply, "status");
    } while (out.status == "queued" || out.status == "running");
  }
  out.latency_ms = ms_since(t0);
  out.verdict_json = verdict_of(reply);
  return out;
}

std::string salted(const std::string& text, int round) {
  const std::string from = "max_configs " + std::to_string(kBaseMaxConfigs) + "\n";
  const std::size_t at = text.find(from);
  if (at == std::string::npos) throw std::runtime_error("job text without max_configs");
  return text.substr(0, at) + "max_configs " +
         std::to_string(kBaseMaxConfigs + static_cast<std::size_t>(round) + 1) +
         "\n" + text.substr(at + from.size());
}

}  // namespace

RunResult run_service(const RunOptions& o) {
  RunResult r;
  // ---- set-up: implementations, job texts (parsed once, as the daemon
  // will), a daemon that accepts connections, and the warm-up round below.
  const Clock::time_point build0 = Clock::now();
  std::vector<Entry> catalogue = build_catalogue();
  const double build_ms = ms_since(build0);
  std::vector<std::string> texts;
  for (Entry& e : catalogue) {
    e.text = service::print_job(e.bench.job);
    e.bench.job = service::parse_job(e.text);
    texts.push_back(e.text);
  }
  const int cores = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  const int workers = std::max(1, cores / 2);
  const int clients = std::max(1, cores - workers);
  std::filesystem::create_directories(o.workdir);
  const std::string socket = o.workdir + "/wfregsd.sock";
  DaemonProcess daemon(o.wfregsd,
                       {"--socket", socket, "--store", o.workdir + "/verdicts.log",
                        "--workers", std::to_string(workers), "--explore-threads",
                        "1", "--queue-capacity", "4096"},
                       o.workdir + "/wfregsd.out");
  std::vector<std::unique_ptr<service::Client>> conns;
  const Clock::time_point wait0 = Clock::now();
  while (conns.empty()) {
    try {
      conns.push_back(std::make_unique<service::Client>(socket));
    } catch (const std::exception&) {
      if (daemon.exited() || seconds_since(wait0) > 60) {
        throw std::runtime_error("wfregsd did not start accepting");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  while (static_cast<int>(conns.size()) < clients) {
    conns.push_back(std::make_unique<service::Client>(socket));
  }
  double setup_s = 0;

  // ---- rounds.  Round 0 warms up and is checked; it ends the set-up.
  std::mt19937_64 rng(derive_seed(o.seed, 2));
  std::uniform_int_distribution<int> pick(0, static_cast<int>(catalogue.size()) - 1);
  std::vector<double> round_s;
  std::vector<double> all_ms;
  std::vector<double> warm_ms;
  std::uint64_t polls = 0;
  std::uint64_t reply_bytes = 0;
  std::vector<std::string> first_round_verdicts(catalogue.size());
  Clock::time_point run0 = Clock::now();
  for (int round = 0; round < 2 || seconds_since(run0) < o.seconds; ++round) {
    const bool measured = round > 0;
    std::vector<int> draws(catalogue.size());
    for (std::size_t k = 0; k < draws.size(); ++k) draws[k] = static_cast<int>(k);
    while (static_cast<int>(draws.size()) < kDrawsPerRound) draws.push_back(pick(rng));
    std::shuffle(draws.begin(), draws.end(), rng);
    std::vector<std::string> round_texts;
    for (const Entry& e : catalogue) round_texts.push_back(salted(e.text, round));

    std::vector<std::vector<Outcome>> per_client(static_cast<std::size_t>(clients));
    std::vector<std::string> errors(static_cast<std::size_t>(clients));
    const Clock::time_point round0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          try {
            for (std::size_t k = static_cast<std::size_t>(c); k < draws.size();
                 k += static_cast<std::size_t>(clients)) {
              per_client[static_cast<std::size_t>(c)].push_back(submit_and_wait(
                  *conns[static_cast<std::size_t>(c)],
                  round_texts[static_cast<std::size_t>(draws[k])], draws[k]));
            }
          } catch (const std::exception& e) {
            errors[static_cast<std::size_t>(c)] = e.what();
          }
        });
      }
    }
    if (measured) round_s.push_back(seconds_since(round0));
    if (round == 0) {
      setup_s = seconds_since(o.start);
      run0 = Clock::now();
    }
    for (const std::string& e : errors) {
      if (!e.empty()) r.fail("client connection: " + e);
    }

    // Checks: theory and bounds on every verdict, one verdict JSON per key
    // within the round (cold == warm), static_power decisions == explored.
    std::vector<std::string> seen(catalogue.size());
    for (const auto& outs : per_client) {
      for (const Outcome& out : outs) {
        const Entry& e = catalogue[static_cast<std::size_t>(out.entry)];
        r.attempted += 1;
        if (measured) {
          all_ms.push_back(out.latency_ms);
          if (out.cached) warm_ms.push_back(out.latency_ms);
          polls += out.polls;
          reply_bytes += out.reply_bytes;
        }
        const service::Verdict v = parse_verdict(out.verdict_json, e.bench.job.kind);
        // A job without a complete verdict is a failed operation; the
        // checks speak of the others.
        if ((out.status != "done" && out.status != "cached") || !v.complete) {
          r.failed += 1;
          continue;
        }
        check_theory(e.bench, v, r);
        check_bounds(e.bench, v, r);
        std::string& first = seen[static_cast<std::size_t>(out.entry)];
        if (first.empty()) {
          first = out.verdict_json;
        } else {
          check_warm(e.bench.name, first, out.verdict_json, r);
        }
      }
    }
    for (std::size_t k = 0; k < catalogue.size(); ++k) {
      const Entry& e = catalogue[k];
      if (e.twin < 0 || !e.bench.job.static_power || seen[k].empty()) continue;
      check_static_agreement(
          e.bench.name, parse_verdict(seen[k], e.bench.job.kind),
          parse_verdict(seen[static_cast<std::size_t>(e.twin)], e.bench.job.kind), r);
    }
    if (round == 0) first_round_verdicts = seen;
  }
  const double rounds = static_cast<double>(round_s.size());
  // Daemon-side totals cover the warm-up round too.
  const double all_rounds = rounds + 1;

  const service::Metrics m = service::parse_metrics_json(conns[0]->stats());
  conns[0]->shutdown();
  conns.clear();
  if (!daemon.reap(std::chrono::seconds(60))) r.fail("wfregsd did not drain");
  const rusage d = usage(RUSAGE_CHILDREN);
  if (m.rejected != 0 || m.cancelled != 0 || m.failed != 0) {
    r.fail("daemon rejected, cancelled or failed jobs");
  }

  if (!o.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("wall_s", median(round_s), "s");
    r.set("peak_rss_mb", static_cast<double>(d.ru_maxrss) / 1024.0, "MB");
    r.set("latency_p50_ms", median(all_ms), "ms");
    r.set("latency_p95_ms", quantile(all_ms, 0.95), "ms");
    r.set("warm_latency_p50_ms", median(warm_ms), "ms");
    return r;
  }

  // ---- traced run: per-layer metrics.
  std::vector<BenchJob> jobs;
  std::vector<service::Verdict> verdicts;
  Counts totals;
  std::uint64_t max_job_configs = 0;
  for (std::size_t k = 0; k < catalogue.size(); ++k) {
    jobs.push_back(catalogue[k].bench);
    const service::Verdict v =
        parse_verdict(first_round_verdicts[k], catalogue[k].bench.job.kind);
    verdicts.push_back(v);
    totals.configs += v.stats.configs;
    totals.edges += v.stats.edges;
    totals.terminals += v.stats.terminals;
    max_job_configs = std::max<std::uint64_t>(max_job_configs, v.stats.configs);
  }
  r.set("registers.build_ms", build_ms, "ms");
  r.set("typesys.compile_ms", compile_ms(jobs), "ms");
  std::vector<BenchJob> consensus_jobs;
  for (const BenchJob& b : jobs) {
    if (b.job.kind == service::JobKind::kConsensus && !b.job.static_power) {
      consensus_jobs.push_back(b);
    }
  }
  r.set("analysis.static_decider_ms", static_decider_ms(consensus_jobs), "ms");
  r.set("analysis.static_decisions", static_cast<double>(m.static_decisions) / all_rounds,
        "count");
  report_text_layers(texts, verdicts, r);

  // Consensus edges and per-root times from the benchmark's own explore()
  // calls over every explored consensus job of the catalogue.
  std::vector<double> root_ms;
  for (const BenchJob& b : consensus_jobs) {
    const RootSweep sweep = sweep_consensus_roots(b, 1);
    totals.edges += sweep.counts.edges;
    root_ms.insert(root_ms.end(), sweep.root_ms.begin(), sweep.root_ms.end());
    if (sweep.solves != b.expect_ok) r.fail(b.name + ": own root sweep disagrees with theory");
  }
  const double explore_s = static_cast<double>(m.run_ns_total) / 1e9 / all_rounds;
  const double daemon_cpu = cpu_seconds(d) / all_rounds;
  r.set("runtime.configs", static_cast<double>(totals.configs), "count");
  r.set("runtime.edges", static_cast<double>(totals.edges), "count");
  r.set("runtime.terminals", static_cast<double>(totals.terminals), "count");
  r.set("runtime.explore_s", explore_s, "s");
  r.set("runtime.configs_per_s", static_cast<double>(totals.configs) / explore_s, "1/s");
  r.set("runtime.edges_per_s", static_cast<double>(totals.edges) / explore_s, "1/s");
  r.set("runtime.root_ms_p50", median(root_ms), "ms");
  r.set("runtime.root_ms_max", quantile(root_ms, 1.0), "ms");
  r.set("runtime.bytes_per_config",
        static_cast<double>(d.ru_maxrss) * 1024.0 /
            static_cast<double>(std::max<std::uint64_t>(max_job_configs, 1)),
        "B");
  r.set("runtime.minor_faults", static_cast<double>(d.ru_minflt) / all_rounds, "count");
  r.set("concurrent.cpu_s", daemon_cpu, "s");
  r.set("concurrent.idle_share",
        std::max(0.0, 1.0 - daemon_cpu / (mean(round_s) * (workers + 1))), "ratio");
  r.set("concurrent.cas_retries", 0, "count");
  r.set("concurrent.steal_attempts", 0, "count");
  r.set("concurrent.steals", 0, "count");
  r.set("concurrent.snapshot_retries", static_cast<double>(m.snapshot_retries), "count");
  r.set("concurrent.speedup_vs_seq", 1, "ratio");
  r.set("concurrent.rss_over_seq", 1, "ratio");
  r.set("storage.max_resident_mb", 0, "MB");
  r.set("storage.evictions", 0, "count");
  r.set("storage.disk_write_mb",
        static_cast<double>(d.ru_oublock) * 512.0 / kMiB / all_rounds, "MB");
  r.set("storage.major_faults", static_cast<double>(d.ru_majflt) / all_rounds, "count");
  r.set("storage.checkpoint_overhead", 1, "ratio");
  r.set("storage.spill_overhead", 1, "ratio");
  const auto per = [](std::uint64_t total, std::uint64_t count, double scale) {
    return static_cast<double>(total) * scale /
           static_cast<double>(std::max<std::uint64_t>(count, 1));
  };
  r.set("service.lookup_us_mean", per(m.lookup_ns_total, m.lookup_count, 1e-3), "us");
  r.set("service.queue_wait_ms_mean", per(m.queue_ns_total, m.queue_count, 1e-6), "ms");
  r.set("service.run_ms_mean", per(m.run_ns_total, m.run_count, 1e-6), "ms");
  r.set("service.append_us_mean", per(m.append_ns_total, m.append_count, 1e-3), "us");
  r.set("service.cache_hits", static_cast<double>(m.cache_hits) / all_rounds, "count");
  r.set("service.cache_misses", static_cast<double>(m.cache_misses) / all_rounds, "count");
  r.set("service.coalesced", static_cast<double>(m.coalesced) / all_rounds, "count");
  r.set("service.store_kb", static_cast<double>(m.store_bytes) / 1024.0 / all_rounds, "KB");
  r.set("service.polls_per_job", static_cast<double>(polls) / static_cast<double>(all_ms.size()),
        "count");
  r.set("service.reply_mb", static_cast<double>(reply_bytes) / kMiB / rounds, "MB");
  r.set("service.server_cpu_s", daemon_cpu, "s");
  r.set("service.server_ctx_switches",
        static_cast<double>(d.ru_nvcsw + d.ru_nivcsw) / all_rounds, "count");
  return r;
}

}  // namespace perfbench
