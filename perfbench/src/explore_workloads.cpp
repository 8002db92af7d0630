// explore-seq, explore-par and explore-ooc: a few large verification jobs
// run through an in-process JobScheduler, the same runner wfregs_cli verify
// and wfregsd use.  Each round submits every job once cold (the round's
// config budget makes its key new) and then kWarmRepeats times warm.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "wfregs/analysis/consensus_power.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/storage/spill_arena.hpp"
#include "wfregs/typesys/compiled_type.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = wfregs::service;

namespace {

constexpr int kWarmRepeats = 512;
/// Warm resubmissions are timed in bursts of this many consecutive ones.
constexpr int kWarmBurst = 32;
constexpr std::size_t kOocBudget = std::size_t{16} << 20;
constexpr double kMiB = 1024.0 * 1024.0;

struct Shape {
  std::vector<BenchJob> jobs;
  int threads = 1;
  bool ooc = false;
  /// The engine the reference counts come from: the one this workload
  /// does not use.
  std::string ref_engine;
};

int host_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

Shape shape_of(const std::string& workload) {
  if (workload == "explore-seq") {
    return {{job_lin_mrsw(), job_lin_mrsw_sleep(), job_cas_ids5()}, 1, false,
            "ooc"};
  }
  if (workload == "explore-par") {
    return {{job_lin_mrsw(), job_cas_ids5()}, host_threads(), false, "ooc"};
  }
  if (workload == "explore-ooc") {
    return {{job_lin_mrsw()}, 1, true, "incore"};
  }
  throw std::invalid_argument("unknown workload " + workload);
}

template <class Fn>
double median_ms_of(int passes, Fn&& fn) {
  std::vector<double> ms;
  for (int k = 0; k < passes; ++k) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

void collect_specs(const wfregs::Implementation& impl,
                   std::set<const wfregs::TypeSpec*>& out) {
  out.insert(&impl.iface());
  for (const wfregs::ObjectDecl& d : impl.objects()) {
    if (d.is_base()) {
      out.insert(d.spec.get());
    } else {
      collect_specs(*d.impl, out);
    }
  }
}

}  // namespace

double compile_ms(const std::vector<BenchJob>& jobs) {
  std::set<const wfregs::TypeSpec*> specs;
  for (const BenchJob& b : jobs) collect_specs(*b.job.impl, specs);
  return median_ms_of(9, [&] {
    for (const wfregs::TypeSpec* s : specs) {
      const wfregs::CompiledType c = s->compile();
      asm volatile("" : : "r"(&c) : "memory");
    }
  });
}

double static_decider_ms(const std::vector<BenchJob>& jobs) {
  const auto decider = wfregs::analysis::static_consensus_decider();
  return median_ms_of(9, [&] {
    for (const BenchJob& b : jobs) {
      const auto d = decider(*b.job.impl);
      asm volatile("" : : "r"(&d) : "memory");
    }
  });
}

void report_text_layers(const std::vector<std::string>& texts,
                        const std::vector<service::Verdict>& verdicts,
                        RunResult& r) {
  double bytes = 0;
  for (const std::string& t : texts) bytes += static_cast<double>(t.size());
  r.set("service.job_text_mb", bytes / kMiB, "MB");
  r.set("service.parse_job_ms", median_ms_of(9, [&] {
          for (const std::string& t : texts) {
            const service::VerifyJob j = service::parse_job(t);
            asm volatile("" : : "r"(&j) : "memory");
          }
        }),
        "ms");
  r.set("service.job_key_ms", median_ms_of(9, [&] {
          for (const std::string& t : texts) {
            const service::JobKey k = service::hash_job_text(t);
            asm volatile("" : : "r"(&k) : "memory");
          }
        }),
        "ms");
  r.set("service.verdict_json_ms", median_ms_of(9, [&] {
          for (const service::Verdict& v : verdicts) {
            const std::string j = service::verdict_to_json(v);
            asm volatile("" : : "r"(&j) : "memory");
          }
        }),
        "ms");
}

RunResult run_explore(const RunOptions& o) {
  RunResult r;
  // ---- set-up: build the implementations, print and parse the job texts
  // (the wfregs_cli verify path), start the scheduler, and run the warm-up
  // round below.
  const Clock::time_point build0 = Clock::now();
  Shape shape = shape_of(o.workload);
  const double build_ms = ms_since(build0);
  std::vector<std::string> texts;
  for (BenchJob& b : shape.jobs) {
    texts.push_back(service::print_job(b.job));
    b.job = service::parse_job(texts.back());
  }
  const References refs(o.references);
  service::SchedulerOptions so;
  so.workers = 1;
  so.explore_threads = shape.threads;
  if (shape.ooc) {
    so.storage.memory_budget_bytes = kOocBudget;
    so.storage.spill_dir = o.workdir + "/spill";
    so.storage.checkpoint_dir = o.workdir + "/checkpoints";
  }
  service::JobScheduler sched(so);
  double setup_s = 0;

  // ---- rounds.  Round 0 warms up (first-touch page faults, allocator
  // growth) and is checked; it ends the set-up, and the measured window
  // starts after it.
  const std::uint64_t setup_rss = current_rss_bytes();
  rusage u_start = usage(RUSAGE_SELF);
  std::mt19937_64 rng(derive_seed(o.seed, 1));
  std::vector<double> round_s;
  std::vector<double> cold_ms;
  // Per job: its measured cold latencies, and the median of each measured
  // burst of kWarmBurst warm resubmissions.
  std::vector<std::vector<double>> job_cold_ms(shape.jobs.size());
  std::vector<std::vector<double>> job_warm_ms(shape.jobs.size());
  std::vector<double> single_root_ms;
  std::vector<service::Verdict> first_round_verdicts;
  double cpu_s_total = 0;
  std::uint64_t max_job_configs = 0;
  Clock::time_point run0 = Clock::now();
  for (int round = 0; round < 2 || seconds_since(run0) < o.seconds; ++round) {
    const bool measured = round > 0;
    std::vector<std::size_t> order(shape.jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    const Clock::time_point round0 = Clock::now();
    for (const std::size_t idx : order) {
      const BenchJob& b = shape.jobs[idx];
      service::VerifyJob job = b.job;
      job.options.limits.max_configs =
          kBaseMaxConfigs + static_cast<std::size_t>(round) + 1;
      const rusage u0 = usage(RUSAGE_SELF);
      const Clock::time_point t0 = Clock::now();
      const service::Submitted s = sched.submit(job);
      const service::Verdict v = s.result.get();
      const double latency_ms = ms_since(t0);
      const double cpu_s = cpu_seconds(usage(RUSAGE_SELF)) - cpu_seconds(u0);
      r.attempted += 1;
      if (measured) {
        cpu_s_total += cpu_s;
        cold_ms.push_back(latency_ms);
        job_cold_ms[idx].push_back(latency_ms);
        if (b.roots == 1) single_root_ms.push_back(latency_ms);
      }
      if (s.cached || s.coalesced) {
        r.fail(b.name + ": a cold submission was answered from the cache");
      }
      // A job without a complete verdict is a failed operation; the checks
      // speak of the others.
      if (!v.complete) {
        r.failed += 1;
      } else {
        check_theory(b, v, r);
        check_bounds(b, v, r);
        check_reference(b, v, refs.find(b.name, shape.ref_engine),
                        shape.threads, r);
      }
      max_job_configs = std::max<std::uint64_t>(max_job_configs,
                                                v.stats.configs);
      if (round == 0) first_round_verdicts.push_back(v);
      const std::string cold_json = service::verdict_to_json(v);
      std::vector<double> burst_ms;
      for (int k = 0; k < kWarmRepeats; ++k) {
        const Clock::time_point w0 = Clock::now();
        const service::Submitted w = sched.submit(job);
        const service::Verdict wv = w.result.get();
        if (measured) {
          burst_ms.push_back(ms_since(w0));
          if (static_cast<int>(burst_ms.size()) == kWarmBurst) {
            job_warm_ms[idx].push_back(median(burst_ms));
            burst_ms.clear();
          }
        }
        r.attempted += 1;
        if (!wv.complete) r.failed += 1;
        if (!w.cached) r.fail(b.name + ": a warm submission missed the cache");
        if (k == 0) check_warm(b.name, cold_json, service::verdict_to_json(wv), r);
      }
    }
    if (measured) round_s.push_back(seconds_since(round0));
    if (round == 0) {
      setup_s = seconds_since(o.start);
      run0 = Clock::now();
      u_start = usage(RUSAGE_SELF);
    }
  }
  const rusage u_end = usage(RUSAGE_SELF);
  if (shape.ooc) {
    check_residency(wfregs::storage::arena_global_stats().max_resident_bytes,
                    kOocBudget, r);
  }

  if (!o.trace) {
    // The jobs differ in size by up to 3x, so a quantile over all their
    // samples would fall in the gap between two jobs and swing with a
    // single sample.  Each job's latency is its median over the run; the
    // workload reports the median and the largest of those.
    std::vector<double> per_job_cold;
    std::vector<double> per_job_warm;
    for (std::size_t j = 0; j < shape.jobs.size(); ++j) {
      per_job_cold.push_back(median(job_cold_ms[j]));
      // A warm resubmission is under 1 ms of single-threaded work.  On a
      // shared host, spells of tens to hundreds of ms run it about 1.5x
      // slower, CPU time and wall time alike, so a median over a run's
      // bursts flips with how many spells it met.  The 10th percentile of
      // the burst medians is the figure least disturbed by them.
      per_job_warm.push_back(quantile(job_warm_ms[j], 0.1));
    }
    r.set("setup_s", setup_s, "s");
    r.set("wall_s", median(round_s), "s");
    r.set("peak_rss_mb", static_cast<double>(u_end.ru_maxrss) / 1024.0, "MB");
    r.set("latency_p50_ms", median(per_job_cold), "ms");
    r.set("latency_p95_ms", quantile(per_job_cold, 1.0), "ms");
    r.set("warm_latency_p50_ms", median(per_job_warm), "ms");
    return r;
  }

  // ---- traced run: per-layer metrics.  Everything below reads what the
  // measured rounds did, or times one layer's public functions directly.
  const double rounds = static_cast<double>(round_s.size());
  const service::Metrics m = sched.metrics();
  const auto arena = wfregs::storage::arena_global_stats();
  r.set("registers.build_ms", build_ms, "ms");
  r.set("typesys.compile_ms", compile_ms(shape.jobs), "ms");
  r.set("analysis.static_decider_ms", static_decider_ms(shape.jobs), "ms");
  // Scheduler and arena counters cover the warm-up round too.
  const double all_rounds = rounds + 1;
  r.set("analysis.static_decisions",
        static_cast<double>(m.static_decisions) / all_rounds, "count");
  report_text_layers(texts, first_round_verdicts, r);

  // Consensus roots, swept by the benchmark's own explore() calls at the
  // workload's thread count: per-root times, edges and contention.
  Counts totals;
  std::vector<double> root_ms = single_root_ms;
  RootSweep sweep;
  for (const service::Verdict& v : first_round_verdicts) {
    totals.configs += v.stats.configs;
    totals.edges += v.stats.edges;
    totals.terminals += v.stats.terminals;
  }
  for (const BenchJob& b : shape.jobs) {
    if (b.job.kind != service::JobKind::kConsensus) continue;
    sweep = sweep_consensus_roots(b, shape.threads);
    root_ms.insert(root_ms.end(), sweep.root_ms.begin(), sweep.root_ms.end());
    totals.edges += sweep.counts.edges;
    if (sweep.solves != b.expect_ok) {
      r.fail(b.name + ": own root sweep disagrees with theory");
    }
    if (sweep.counts.edges + static_cast<std::uint64_t>(b.roots) <
        sweep.counts.configs) {
      r.fail(b.name + ": own root sweep has edges < configs - roots");
    }
    check_counts(b.name + " root sweep", sweep.counts,
                 refs.find(b.name, "ooc"), r);
  }
  double explore_s = 0;
  for (const double ms : cold_ms) explore_s += ms / 1e3 / rounds;
  r.set("runtime.configs", static_cast<double>(totals.configs), "count");
  r.set("runtime.edges", static_cast<double>(totals.edges), "count");
  r.set("runtime.terminals", static_cast<double>(totals.terminals), "count");
  r.set("runtime.explore_s", explore_s, "s");
  r.set("runtime.configs_per_s", static_cast<double>(totals.configs) / explore_s,
        "1/s");
  r.set("runtime.edges_per_s", static_cast<double>(totals.edges) / explore_s,
        "1/s");
  r.set("runtime.root_ms_p50", median(root_ms), "ms");
  r.set("runtime.root_ms_max", quantile(root_ms, 1.0), "ms");
  const double peak_bytes = static_cast<double>(u_end.ru_maxrss) * 1024.0;
  r.set("runtime.bytes_per_config",
        (peak_bytes - static_cast<double>(setup_rss)) /
            static_cast<double>(std::max<std::uint64_t>(max_job_configs, 1)),
        "B");
  r.set("runtime.minor_faults",
        static_cast<double>(u_end.ru_minflt - u_start.ru_minflt) / rounds,
        "count");

  r.set("concurrent.cpu_s", cpu_s_total / rounds, "s");
  r.set("concurrent.idle_share",
        std::max(0.0, 1.0 - cpu_s_total / rounds /
                                (explore_s * static_cast<double>(shape.threads))),
        "ratio");
  r.set("concurrent.cas_retries", static_cast<double>(sweep.cas_retries),
        "count");
  r.set("concurrent.steal_attempts", static_cast<double>(sweep.steal_attempts),
        "count");
  r.set("concurrent.steals", static_cast<double>(sweep.steals), "count");
  r.set("concurrent.snapshot_retries",
        static_cast<double>(sweep.snapshot_retries), "count");
  double speedup = 1;
  double rss_ratio = 1;
  if (shape.threads > 1) {
    // In-process ratio against the sequential explore() of job (a).
    const std::atomic<bool> no_cancel{false};
    const auto timed = [&](int threads, double* rss_growth) {
      const std::uint64_t base = current_rss_bytes();
      RssSampler sampler;
      const Clock::time_point t0 = Clock::now();
      const service::Verdict v = service::JobScheduler::default_runner(threads)(
          shape.jobs[0].job, no_cancel);
      const double s = seconds_since(t0);
      *rss_growth = static_cast<double>(sampler.stop() - base);
      check_theory(shape.jobs[0], v, r);
      return s;
    };
    double seq_rss = 0;
    double par_rss = 0;
    const double seq_s = timed(1, &seq_rss);
    const double par_s = timed(shape.threads, &par_rss);
    speedup = seq_s / par_s;
    rss_ratio = par_rss / std::max(seq_rss, 1.0);
  }
  r.set("concurrent.speedup_vs_seq", speedup, "ratio");
  r.set("concurrent.rss_over_seq", rss_ratio, "ratio");

  r.set("storage.max_resident_mb",
        static_cast<double>(arena.max_resident_bytes) / kMiB, "MB");
  r.set("storage.evictions", static_cast<double>(arena.evictions) / all_rounds,
        "count");
  r.set("storage.disk_write_mb",
        static_cast<double>(u_end.ru_oublock - u_start.ru_oublock) * 512.0 /
            kMiB / rounds,
        "MB");
  r.set("storage.major_faults",
        static_cast<double>(u_end.ru_majflt - u_start.ru_majflt) / rounds,
        "count");
  double checkpoint_overhead = 1;
  double spill_overhead = 1;
  if (shape.ooc) {
    // The same job without checkpoints, and in core, run directly.
    const std::atomic<bool> no_cancel{false};
    const auto runner = service::JobScheduler::default_runner(1);
    service::VerifyJob budget_only = shape.jobs[0].job;
    budget_only.options.storage.memory_budget_bytes = kOocBudget;
    budget_only.options.storage.spill_dir = o.workdir + "/spill-probe";
    Clock::time_point t0 = Clock::now();
    check_theory(shape.jobs[0], runner(budget_only, no_cancel), r);
    const double budget_s = seconds_since(t0);
    t0 = Clock::now();
    check_theory(shape.jobs[0], runner(shape.jobs[0].job, no_cancel), r);
    const double incore_s = seconds_since(t0);
    checkpoint_overhead = median(cold_ms) / 1e3 / budget_s;
    spill_overhead = budget_s / incore_s;
  }
  r.set("storage.checkpoint_overhead", checkpoint_overhead, "ratio");
  r.set("storage.spill_overhead", spill_overhead, "ratio");

  r.set("service.lookup_us_mean",
        static_cast<double>(m.lookup_ns_total) / 1e3 /
            static_cast<double>(std::max<std::uint64_t>(m.lookup_count, 1)),
        "us");
  r.set("service.queue_wait_ms_mean",
        static_cast<double>(m.queue_ns_total) / 1e6 /
            static_cast<double>(std::max<std::uint64_t>(m.queue_count, 1)),
        "ms");
  r.set("service.run_ms_mean",
        static_cast<double>(m.run_ns_total) / 1e6 /
            static_cast<double>(std::max<std::uint64_t>(m.run_count, 1)),
        "ms");
  r.set("service.append_us_mean",
        static_cast<double>(m.append_ns_total) / 1e3 /
            static_cast<double>(std::max<std::uint64_t>(m.append_count, 1)),
        "us");
  r.set("service.cache_hits", static_cast<double>(m.cache_hits) / all_rounds,
        "count");
  r.set("service.cache_misses",
        static_cast<double>(m.cache_misses) / all_rounds, "count");
  r.set("service.coalesced", static_cast<double>(m.coalesced) / all_rounds,
        "count");
  r.set("service.store_kb",
        static_cast<double>(m.store_bytes) / 1024.0 / all_rounds, "KB");
  r.set("service.polls_per_job", 0, "count");
  r.set("service.reply_mb", 0, "MB");
  r.set("service.server_cpu_s",
        (cpu_seconds(u_end) - cpu_seconds(u_start)) / rounds, "s");
  r.set("service.server_ctx_switches",
        static_cast<double>((u_end.ru_nvcsw - u_start.ru_nvcsw) +
                            (u_end.ru_nivcsw - u_start.ru_nivcsw)) /
            rounds,
        "count");
  std::filesystem::remove_all(o.workdir + "/spill-probe");
  return r;
}

}  // namespace perfbench
