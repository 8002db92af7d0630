// The benchmark's jobs and the correctness checks applied to their
// verdicts.  Every expected verdict comes from theory (which protocols solve
// consensus, which constructions are linearizable and wait-free) or from an
// independent exploration engine, never from a stored copy of this
// program's own output.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "wfregs/service/job.hpp"

namespace perfbench {

/// One verification job of a workload, with what theory says its verdict
/// must be.
struct BenchJob {
  std::string name;
  wfregs::service::VerifyJob job;
  /// The verdict theory predicts: true for the consensus protocols that
  /// solve (CAS, cas_ids, sticky bit, queue, tas, faa, w = n shift
  /// register) and for the register constructions (Simpson, MRSW,
  /// snapshot: linearizable and wait-free); false for
  /// registers_only_attempt (FLP / Loui-Abu-Amara).
  bool expect_ok = true;
  /// Exploration roots: 1 for a linearizability job, 2^n for n-process
  /// consensus.
  int roots = 1;
  /// n for consensus jobs, 0 otherwise.
  int processes = 0;
};

/// Jobs (a), (b) and (c) of the exploring workloads: linearizability of an
/// MRSW register over Simpson four-slot registers (one deep root), the same
/// under sleep-set reduction, and consensus from CAS with ids at n = 5 (32
/// small roots).
BenchJob job_lin_mrsw();
BenchJob job_lin_mrsw_sleep();
BenchJob job_cas_ids5();

/// Exploration counts of one job, as an engine reports them.
struct Counts {
  std::uint64_t configs = 0;
  std::uint64_t edges = 0;
  std::uint64_t terminals = 0;
  std::uint64_t depth = 0;
};

/// Reference counts by job and engine ("incore" or "ooc"), loaded from
/// perfbench/reference_counts.txt.
class References {
 public:
  /// Throws std::runtime_error when the file cannot be read or parsed.
  explicit References(const std::string& path);
  /// nullptr when the file has no entry for (job, engine).
  const Counts* find(const std::string& job, const std::string& engine) const;

 private:
  std::map<std::string, Counts> by_key_;
};

/// Verdict bits against theory; a verdict that is not complete fails too.
void check_theory(const BenchJob& job, const wfregs::service::Verdict& v,
                  RunResult& r);

/// Bounds every complete exploration obeys: edges >= configs - roots (when
/// the verdict reports edges), and terminals >= 2^n for protocols that
/// solve (a violating check stops early, so the bound is only for solvers);
/// any explored job has at least one terminal per root.
void check_bounds(const BenchJob& job, const wfregs::service::Verdict& v,
                  RunResult& r);

/// Counts against a reference from a different engine.  Edges are compared
/// only when the verdict reports them (consensus verdicts report 0).  A
/// failing verdict explored on more than one thread is skipped: its counts
/// depend on which worker found the violation first.
void check_reference(const BenchJob& job, const wfregs::service::Verdict& v,
                     const Counts* ref, int explore_threads, RunResult& r);

/// Counts gathered by the benchmark's own explore() calls (traced runs),
/// against the same reference, edges included.
void check_counts(const std::string& what, const Counts& got,
                  const Counts* ref, RunResult& r);

/// A warm (cached) verdict's JSON must equal the cold verdict's JSON.
void check_warm(const std::string& job, const std::string& cold_json,
                const std::string& warm_json, RunResult& r);

/// A static_power verdict must agree, as a decision, with the explored
/// verdict of the same implementation and reduction.
void check_static_agreement(const std::string& job,
                            const wfregs::service::Verdict& static_v,
                            const wfregs::service::Verdict& explored_v,
                            RunResult& r);

/// The out-of-core arena's peak residency stays within 1.2x its budget.
void check_residency(std::uint64_t max_resident_bytes,
                     std::uint64_t budget_bytes, RunResult& r);

/// Feeds each check a verdict corrupted in one field and confirms the check
/// rejects it.  Returns the process exit code (0 = every check rejected
/// every corruption and accepted the true verdicts).
int self_test(const std::string& workdir);

/// Recomputes perfbench/reference_counts.txt: the in-core jobs with the
/// out-of-core engine and the out-of-core job with the in-core engine.
int regenerate_references(const std::string& out_path,
                          const std::string& workdir);

/// The sum of explore() over every consensus_scenario root of a job, run
/// with the benchmark's own agreement/validity check: counts, each root's
/// time in ms, and the parallel engine's contention counters.
struct RootSweep {
  Counts counts;
  bool solves = true;
  std::vector<double> root_ms;
  std::uint64_t cas_retries = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t snapshot_retries = 0;
};
/// `threads` > 1 uses explore_parallel; a non-empty `spill_dir` routes every
/// root to the out-of-core engine (8 MiB budget, spilling under spill_dir).
RootSweep sweep_consensus_roots(const BenchJob& job, int threads,
                                const std::string& spill_dir = {});

}  // namespace perfbench
