// Chaos soak (self-healing tier): replay seeded fault schedules against
// the stencil figure workload on the DES backend and report
// detection-latency and MTTR statistics from the trace counters, plus a
// digest check against the fault-free run.
//
//   ./bench/micro_chaos [--seed 11] [--iters 10] [--json]
//
// With --json, one JSON object per schedule is printed on stdout:
//   {"schedule":..,"seed":..,"digest_ok":..,"failures":..,
//    "detections":..,"mean_detect_s":..,"recoveries":..,"mean_mttr_s":..,
//    "slowdown":..}

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "bench_common.hpp"
#include "ft/ft.hpp"
#include "util/main_guard.hpp"

namespace {

struct SoakRun {
  stencil::Result result;
  std::uint64_t digest = 0;
  cx::trace::Counters counters;
};

SoakRun run_one(const cxm::MachineConfig& machine, int iters) {
  cx::trace::reset();
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  cx::trace::configure(tc);
  stencil::Params p;  // default 2x2x2 blocks of 8x8x8 cells
  p.iterations = iters;
  p.real_kernel = true;
  p.ckpt_every = 2;
  SoakRun out;
  out.result = stencil::run_cx(p, machine);
  out.digest = cx::ft::checkpoint_digest();
  out.counters = cx::trace::aggregate();
  cx::trace::reset();
  return out;
}

struct Schedule {
  std::string name;
  std::vector<cx::ft::ScriptedFault> script;  // times are makespan fractions
  double heartbeat_frac = 0.0;  // >0: interval as a fraction of makespan
};

// The real-kernel workload charges *measured* kernel times to the
// virtual clock, so reduction arrival order (and with it the rounding
// of the non-associative checksum sum) can wobble by an ULP between
// runs. The digest is count-based and must match exactly; the checksum
// gets the same 4-ULP tolerance gtest's EXPECT_DOUBLE_EQ applies.
bool checksum_close(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  if ((ua >> 63) != (ub >> 63)) return a == b;
  const std::uint64_t d = ua > ub ? ua - ub : ub - ua;
  return d <= 4;
}

cx::ft::ScriptedFault at(double frac, int pe, cx::ft::FailureKind kind) {
  cx::ft::ScriptedFault f;
  f.pe = pe;
  f.at = frac;  // scaled by the measured makespan before the run
  f.kind = kind;
  return f;
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 11));
  const int iters = static_cast<int>(opt.get_int("iters", 10));
  const bool json = opt.has("json");

  cxm::MachineConfig base;
  base.num_pes = 4;
  base.backend = cxm::Backend::Sim;

  const SoakRun clean = run_one(base, iters);
  if (!json) {
    std::printf("micro_chaos: fault-free makespan %.6fs, digest %llu\n\n",
                clean.result.elapsed,
                static_cast<unsigned long long>(clean.digest));
  }

  using cx::ft::FailureKind;
  const std::vector<Schedule> schedules = {
      {"single-crash", {at(0.4, 2, FailureKind::Crashed)}},
      {"double-crash",
       {at(0.3, 1, FailureKind::Crashed), at(0.6, 3, FailureKind::Crashed)}},
      {"coordinator-crash", {at(0.4, 0, FailureKind::Crashed)}},
      {"silent-hang", {at(0.4, 2, FailureKind::Hung)}, 0.1},
      {"crash-revive-crash",
       {at(0.3, 2, FailureKind::Crashed), at(2.2, 2, FailureKind::Crashed)}},
  };

  cxu::Table table({"schedule", "digest", "failures", "detect", "mean det s",
                    "recover", "mean MTTR s", "slowdown"});
  bool all_ok = true;
  for (const auto& s : schedules) {
    cxm::MachineConfig m = base;
    m.faults.seed = seed;
    m.faults.auto_recover = true;
    for (const auto& f : s.script) {
      auto scaled = f;
      scaled.at = f.at * clean.result.elapsed;
      m.faults.script.push_back(scaled);
    }
    if (s.heartbeat_frac > 0.0) {
      m.faults.heartbeat_s = s.heartbeat_frac * clean.result.elapsed;
      m.faults.hb_threshold = 3.0;
    }
    const SoakRun r = run_one(m, iters);
    const auto& c = r.counters;
    const bool digest_ok = r.digest == clean.digest &&
                           checksum_close(r.result.checksum,
                                          clean.result.checksum);
    all_ok = all_ok && digest_ok;
    const double mean_detect =
        c.ft_detections > 0 ? c.ft_detect_latency_s / c.ft_detections : 0.0;
    const double mean_mttr =
        c.ft_recoveries > 0 ? c.ft_mttr_s / c.ft_recoveries : 0.0;
    const double slowdown = r.result.elapsed / clean.result.elapsed;
    if (json) {
      std::printf(
          "{\"schedule\":\"%s\",\"seed\":%llu,\"digest_ok\":%s,"
          "\"failures\":%llu,\"detections\":%llu,\"mean_detect_s\":%.9f,"
          "\"recoveries\":%llu,\"mean_mttr_s\":%.9f,\"slowdown\":%.3f}\n",
          s.name.c_str(), static_cast<unsigned long long>(seed),
          digest_ok ? "true" : "false",
          static_cast<unsigned long long>(c.ft_failures),
          static_cast<unsigned long long>(c.ft_detections), mean_detect,
          static_cast<unsigned long long>(c.ft_recoveries), mean_mttr,
          slowdown);
    } else {
      table.add_row({s.name, digest_ok ? "ok" : "MISMATCH",
                     std::to_string(c.ft_failures),
                     std::to_string(c.ft_detections),
                     cxu::Table::num(mean_detect, 7),
                     std::to_string(c.ft_recoveries),
                     cxu::Table::num(mean_mttr, 7),
                     cxu::Table::num(slowdown, 2)});
    }
  }
  if (!json) {
    table.print();
    std::printf(
        "\nEvery schedule must land back on the fault-free checksum and\n"
        "checkpoint digest; 'detect' counts heartbeat declarations (crash\n"
        "schedules are detected by the injector, so the column is 0).\n");
  }
  return all_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
