#include "checks.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/registers/mrsw.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace perfbench {

using wfregs::Reduction;
using wfregs::service::JobKind;
using wfregs::service::Provenance;
using wfregs::service::Verdict;

namespace {

BenchJob lin_mrsw(const std::string& name, Reduction reduction) {
  const wfregs::zoo::MrswRegisterLayout lay{2, 2};
  BenchJob b;
  b.name = name;
  b.job.kind = JobKind::kLinearizable;
  b.job.impl = wfregs::registers::mrsw_register(
      2, 2, 0, 2, wfregs::registers::simpson_srsw_factory());
  b.job.scripts = {{lay.read(), lay.read()}, {lay.read()},
                   {lay.write(1), lay.write(0)}};
  b.job.options.reduction = reduction;
  return b;
}

std::string describe(const Counts& c) {
  std::ostringstream out;
  out << "configs " << c.configs << " edges " << c.edges << " terminals "
      << c.terminals << " depth " << c.depth;
  return out.str();
}

Counts counts_of(const Verdict& v) {
  return {v.stats.configs, v.stats.edges, v.stats.terminals,
          static_cast<std::uint64_t>(v.stats.depth)};
}

}  // namespace

BenchJob job_lin_mrsw() { return lin_mrsw("lin_mrsw", Reduction::kNone); }

BenchJob job_lin_mrsw_sleep() {
  return lin_mrsw("lin_mrsw_sleep", Reduction::kSleep);
}

BenchJob job_cas_ids5() {
  BenchJob b;
  b.name = "cas_ids5";
  b.job.kind = JobKind::kConsensus;
  b.job.impl = wfregs::consensus::from_cas_ids(5);
  b.roots = 32;
  b.processes = 5;
  return b;
}

References::References(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string job;
    std::string engine;
    Counts c;
    if (!(fields >> job >> engine >> c.configs >> c.edges >> c.terminals >>
          c.depth)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": want <job> <engine> <configs> <edges> "
                               "<terminals> <depth>");
    }
    by_key_[job + "/" + engine] = c;
  }
}

const Counts* References::find(const std::string& job,
                               const std::string& engine) const {
  const auto it = by_key_.find(job + "/" + engine);
  return it == by_key_.end() ? nullptr : &it->second;
}

void check_theory(const BenchJob& job, const Verdict& v, RunResult& r) {
  if (!v.complete) r.fail(job.name + ": verdict is not complete");
  if (v.ok != job.expect_ok) {
    r.fail(job.name + ": ok is " + (v.ok ? "true" : "false") +
           ", theory says " + (job.expect_ok ? "true" : "false"));
  }
  // Every implementation the benchmark verifies is loop-free or bounded,
  // registers_only_attempt included: it fails agreement, not wait-freedom.
  if (!v.wait_free) r.fail(job.name + ": not wait-free");
  if (v.kind != job.job.kind) r.fail(job.name + ": verdict of the wrong kind");
}

void check_bounds(const BenchJob& job, const Verdict& v, RunResult& r) {
  if (v.provenance == Provenance::kStatic) return;  // nothing was explored
  const Counts c = counts_of(v);
  if (c.configs < static_cast<std::uint64_t>(job.roots)) {
    r.fail(job.name + ": fewer configs than roots (" + describe(c) + ")");
  }
  // Consensus verdicts report no edges (the scheduler's runner never sets
  // them); their edge bound is checked on the benchmark's own sweeps.
  if (job.job.kind != JobKind::kConsensus || c.edges != 0) {
    if (c.edges + static_cast<std::uint64_t>(job.roots) < c.configs) {
      r.fail(job.name + ": edges < configs - roots (" + describe(c) + ")");
    }
  }
  std::uint64_t min_terminals = static_cast<std::uint64_t>(job.roots);
  if (job.job.kind == JobKind::kConsensus && job.expect_ok) {
    min_terminals = std::uint64_t{1} << job.processes;
  }
  if (c.terminals < min_terminals) {
    r.fail(job.name + ": terminals below " + std::to_string(min_terminals) +
           " (" + describe(c) + ")");
  }
}

void check_counts(const std::string& what, const Counts& got,
                  const Counts* ref, RunResult& r) {
  if (ref == nullptr) {
    r.fail(what + ": no reference counts");
    return;
  }
  if (got.configs != ref->configs || got.edges != ref->edges ||
      got.terminals != ref->terminals || got.depth != ref->depth) {
    r.fail(what + ": counts " + describe(got) + " differ from reference " +
           describe(*ref));
  }
}

void check_reference(const BenchJob& job, const Verdict& v, const Counts* ref,
                     int explore_threads, RunResult& r) {
  if (!v.ok && explore_threads > 1) return;
  if (ref == nullptr) {
    r.fail(job.name + ": no reference counts");
    return;
  }
  Counts got = counts_of(v);
  if (job.job.kind == JobKind::kConsensus) got.edges = ref->edges;
  check_counts(job.name, got, ref, r);
}

void check_warm(const std::string& job, const std::string& cold_json,
                const std::string& warm_json, RunResult& r) {
  if (cold_json != warm_json) {
    r.fail(job + ": warm verdict " + warm_json + " differs from cold " +
           cold_json);
  }
}

void check_static_agreement(const std::string& job, const Verdict& static_v,
                            const Verdict& explored_v, RunResult& r) {
  if (static_v.ok != explored_v.ok ||
      static_v.wait_free != explored_v.wait_free ||
      static_v.complete != explored_v.complete) {
    r.fail(job + ": static_power decision differs from the explored one");
  }
}

void check_residency(std::uint64_t max_resident_bytes,
                     std::uint64_t budget_bytes, RunResult& r) {
  if (static_cast<double>(max_resident_bytes) >
      1.2 * static_cast<double>(budget_bytes)) {
    r.fail("arena residency " + std::to_string(max_resident_bytes) +
           " B exceeds 1.2 x budget " + std::to_string(budget_bytes) + " B");
  }
}

RootSweep sweep_consensus_roots(const BenchJob& job, int threads,
                                const std::string& spill_dir) {
  RootSweep out;
  const int n = job.processes;
  for (int vec = 0; vec < (1 << n); ++vec) {
    std::vector<int> inputs;
    for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
    // The benchmark's own agreement and validity check, independent of the
    // one in check_consensus.
    const wfregs::TerminalCheck check =
        [inputs, n](const wfregs::Engine& e) -> std::optional<std::string> {
      const auto first = e.result(0);
      bool valid = false;
      for (const int in : inputs) valid = valid || (first && *first == in);
      if (!valid) return std::string("invalid decision");
      for (int p = 1; p < n; ++p) {
        if (e.result(p) != first) return std::string("disagreement");
      }
      return std::nullopt;
    };
    const wfregs::Engine root{wfregs::consensus::consensus_scenario(
        job.job.impl, inputs)};
    wfregs::ExploreOptions options;
    options.limits = job.job.options.limits;
    options.reduction = job.job.options.reduction;
    if (!spill_dir.empty()) {
      options.storage.spill_dir = spill_dir + "/inputs" + std::to_string(vec);
      options.storage.memory_budget_bytes = std::size_t{8} << 20;
    }
    const Clock::time_point t0 = Clock::now();
    const wfregs::ExploreOutcome o =
        threads > 1 ? wfregs::explore_parallel(root, check, options, threads)
                    : wfregs::explore(root, options, check);
    out.root_ms.push_back(ms_since(t0));
    out.counts.configs += o.stats.configs;
    out.counts.edges += o.stats.edges;
    out.counts.terminals += o.stats.terminals;
    out.counts.depth = std::max<std::uint64_t>(
        out.counts.depth, static_cast<std::uint64_t>(o.stats.depth));
    out.solves = out.solves && !o.violation && o.wait_free && o.complete;
    out.cas_retries += o.contention.cas_retries;
    out.steal_attempts += o.contention.steal_attempts;
    out.steals += o.contention.steals;
    out.snapshot_retries += o.contention.snapshot_retries;
  }
  return out;
}

namespace {

Verdict run_job(const BenchJob& b, const std::string& spill_dir = {}) {
  wfregs::service::VerifyJob job = b.job;
  if (!spill_dir.empty()) {
    job.options.storage.spill_dir = spill_dir;
    job.options.storage.memory_budget_bytes = std::size_t{64} << 20;
  }
  const std::atomic<bool> no_cancel{false};
  return wfregs::service::JobScheduler::default_runner(1)(job, no_cancel);
}

/// Prints one self-test case; true when the check decided as wanted.
bool expect(const std::string& what, bool rejected, bool want_rejected) {
  const bool pass = rejected == want_rejected;
  std::cout << (pass ? "PASS " : "FAIL ") << what << "\n";
  return pass;
}

/// Whether the check run by fn flags a failure.
template <class Fn>
bool rejects(Fn&& fn) {
  RunResult r;
  fn(r);
  return !r.correct;
}

}  // namespace

int self_test(const std::string& workdir) {
  // Small jobs of each kind, with the same construction code as the
  // workloads: consensus from test-and-set (solves), the register-only
  // attempt (does not), and an MRSW register over Simpson registers.
  BenchJob tas;
  tas.name = "tas";
  tas.job.kind = JobKind::kConsensus;
  tas.job.impl = wfregs::consensus::from_test_and_set();
  tas.roots = 4;
  tas.processes = 2;
  BenchJob regs = tas;
  regs.name = "registers_only2";
  regs.job.impl = wfregs::consensus::registers_only_attempt(2);
  regs.expect_ok = false;
  BenchJob lin;
  {
    const wfregs::zoo::MrswRegisterLayout lay{2, 2};
    lin.name = "lin_small";
    lin.job.kind = JobKind::kLinearizable;
    lin.job.impl = wfregs::registers::mrsw_register(
        2, 2, 0, 1, wfregs::registers::simpson_srsw_factory());
    lin.job.scripts = {{lay.read()}, {lay.read()}, {lay.write(1)}};
  }
  const Verdict v_tas = run_job(tas);
  const Verdict v_regs = run_job(regs);
  const Verdict v_lin = run_job(lin);
  const Counts ref_lin = counts_of(run_job(lin, workdir + "/selftest-spill"));
  BenchJob tas_static = tas;
  tas_static.job.static_power = true;
  const Verdict v_tas_static = run_job(tas_static);

  bool ok = true;
  const auto theory = [](const BenchJob& j, Verdict v) {
    return rejects([&](RunResult& r) { check_theory(j, v, r); });
  };
  const auto bounds = [](const BenchJob& j, Verdict v) {
    return rejects([&](RunResult& r) { check_bounds(j, v, r); });
  };
  const auto reference = [&](Verdict v, int threads) {
    return rejects(
        [&](RunResult& r) { check_reference(lin, v, &ref_lin, threads, r); });
  };

  ok &= expect("theory accepts tas", theory(tas, v_tas), false);
  ok &= expect("theory accepts registers_only2", theory(regs, v_regs), false);
  ok &= expect("theory accepts lin_small", theory(lin, v_lin), false);
  Verdict bad = v_tas;
  bad.ok = false;
  ok &= expect("theory rejects tas with ok flipped", theory(tas, bad), true);
  bad = v_regs;
  bad.ok = true;
  ok &= expect("theory rejects registers_only2 with ok flipped",
               theory(regs, bad), true);
  bad = v_lin;
  bad.wait_free = false;
  ok &= expect("theory rejects lin_small with wait_free flipped",
               theory(lin, bad), true);
  bad = v_lin;
  bad.complete = false;
  ok &= expect("theory rejects an incomplete verdict", theory(lin, bad), true);

  ok &= expect("bounds accept tas", bounds(tas, v_tas), false);
  ok &= expect("bounds accept registers_only2", bounds(regs, v_regs), false);
  ok &= expect("bounds accept lin_small", bounds(lin, v_lin), false);
  bad = v_lin;
  bad.stats.edges = 0;
  ok &= expect("bounds reject lin_small with edges zeroed", bounds(lin, bad),
               true);
  bad = v_tas;
  bad.stats.terminals = 3;
  ok &= expect("bounds reject tas with 3 < 2^2 terminals", bounds(tas, bad),
               true);

  ok &= expect("reference accepts lin_small", reference(v_lin, 1), false);
  bad = v_lin;
  bad.stats.configs += 1;
  ok &= expect("reference rejects lin_small with configs + 1",
               reference(bad, 1), true);
  bad = v_lin;
  bad.stats.edges -= 1;
  ok &= expect("reference rejects lin_small with edges - 1",
               reference(bad, 1), true);
  bad = v_lin;
  bad.stats.depth += 1;
  ok &= expect("reference rejects lin_small with depth + 1",
               reference(bad, 4), true);
  bad = v_lin;
  bad.ok = false;
  bad.stats.configs += 1;
  ok &= expect("reference skips a failing verdict explored on 4 threads",
               reference(bad, 4), false);

  const std::string cold = wfregs::service::verdict_to_json(v_lin);
  ok &= expect("warm check accepts equal JSON", rejects([&](RunResult& r) {
                 check_warm("lin_small", cold, cold, r);
               }),
               false);
  bad = v_lin;
  bad.stats.terminals += 1;
  ok &= expect("warm check rejects a changed terminal count",
               rejects([&](RunResult& r) {
                 check_warm("lin_small", cold,
                            wfregs::service::verdict_to_json(bad), r);
               }),
               true);

  ok &= expect("static agreement accepts tas", rejects([&](RunResult& r) {
                 check_static_agreement("tas", v_tas_static, v_tas, r);
               }),
               false);
  bad = v_tas_static;
  bad.ok = !bad.ok;
  ok &= expect("static agreement rejects a flipped static decision",
               rejects([&](RunResult& r) {
                 check_static_agreement("tas", bad, v_tas, r);
               }),
               true);

  const std::uint64_t budget = std::uint64_t{16} << 20;
  ok &= expect("residency accepts 1.2 x budget", rejects([&](RunResult& r) {
                 check_residency(budget * 6 / 5, budget, r);
               }),
               false);
  ok &= expect("residency rejects 1.3 x budget", rejects([&](RunResult& r) {
                 check_residency(budget * 13 / 10, budget, r);
               }),
               true);

  const RootSweep sweep = sweep_consensus_roots(tas, 1);
  Counts from_verdict = counts_of(v_tas);
  from_verdict.edges = sweep.counts.edges;
  ok &= expect("own tas sweep matches the runner's counts",
               rejects([&](RunResult& r) {
                 check_counts("tas", sweep.counts, &from_verdict, r);
               }),
               false);
  ok &= expect("own tas sweep solves", !sweep.solves, false);
  ok &= expect("own registers_only2 sweep does not solve",
               sweep_consensus_roots(regs, 1).solves, false);

  std::filesystem::remove_all(workdir + "/selftest-spill");
  std::cout << (ok ? "self-test passed\n" : "self-test FAILED\n");
  return ok ? 0 : 1;
}

int regenerate_references(const std::string& out_path,
                          const std::string& workdir) {
  const std::string spill = workdir + "/reference-spill";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 2;
  }
  out << "# Reference exploration counts, regenerated by\n"
         "#   python3 perfbench/run.py --regenerate-references\n"
         "# Each in-core workload is checked against the out-of-core engine\n"
         "# (ooc) and explore-ooc against the in-core engine (incore).\n"
         "# Consensus edges come from explore() over every root, since\n"
         "# consensus verdicts do not report edges.\n"
         "# job engine configs edges terminals depth\n";
  const auto line = [&](const std::string& job, const std::string& engine,
                        const Counts& c) {
    out << job << " " << engine << " " << c.configs << " " << c.edges << " "
        << c.terminals << " " << c.depth << "\n";
    std::cout << job << " " << engine << " " << describe(c) << "\n";
  };
  for (const BenchJob& b : {job_lin_mrsw(), job_lin_mrsw_sleep()}) {
    const Verdict v = run_job(b, spill);
    if (!v.complete || v.ok != b.expect_ok) {
      std::cerr << b.name << ": out-of-core verdict disagrees with theory\n";
      return 1;
    }
    line(b.name, "ooc", counts_of(v));
  }
  const Verdict incore = run_job(job_lin_mrsw());
  line("lin_mrsw", "incore", counts_of(incore));
  const RootSweep sweep = sweep_consensus_roots(job_cas_ids5(), 1, spill);
  if (!sweep.solves) {
    std::cerr << "cas_ids5: out-of-core sweep disagrees with theory\n";
    return 1;
  }
  line("cas_ids5", "ooc", sweep.counts);
  std::filesystem::remove_all(spill);
  return 0;
}

}  // namespace perfbench
