// The four workloads.  Each runs in its own process, measures whole rounds
// of the same jobs for --seconds, checks every verdict, and returns the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 1;
  bool trace = false;
  /// Scratch directory for this run (spill files, checkpoints, the daemon's
  /// socket and verdict log); relative to the working directory.
  std::string workdir;
  /// The wfregsd binary (service-mix).
  std::string wfregsd;
  /// perfbench/reference_counts.txt.
  std::string references;
  /// When main() started: set-up time is measured from here.
  Clock::time_point start;
};

/// explore-seq, explore-par and explore-ooc.
RunResult run_explore(const RunOptions& o);
/// service-mix.
RunResult run_service(const RunOptions& o);

/// Layer timings shared by every workload's traced run: TypeSpec::compile
/// over every type the implementations use, and parse_job / hash_job_text /
/// verdict_to_json over the workload's own texts and verdicts (each the
/// median of several passes, in ms).
double compile_ms(const std::vector<BenchJob>& jobs);
double static_decider_ms(const std::vector<BenchJob>& jobs);
void report_text_layers(const std::vector<std::string>& texts,
                        const std::vector<wfregs::service::Verdict>& verdicts,
                        RunResult& r);

/// Every job text carries `max_configs 2000000`; round r of a run submits
/// it with 2000000 + r + 1 instead, so every round's jobs are new to the
/// cache (the job key covers the config budget) while no exploration comes
/// near the limit.
constexpr std::size_t kBaseMaxConfigs = 2000000;

}  // namespace perfbench
