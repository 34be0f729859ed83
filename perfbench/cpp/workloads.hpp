#pragma once
// Workload passes shared by the untraced (workloads.cpp) and traced
// (probes.cpp) invocations.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/stencil/stencil_common.hpp"
#include "bench.hpp"
#include "machine/machine.hpp"
#include "trace/trace.hpp"

namespace pb {

/// Shape of one stencil workload (or, for pool-map, of the stencil
/// geometry its shape-dependent probes use).
struct StencilCfg {
  bool dynamic = false;  ///< cpy (when-strings, Value ndarrays) vs typed cx
  bool cxrun = false;    ///< cxrun -np 2 -ppn 1 instead of threaded PEs
  stencil::Geometry geo;
  int iters = 1;  ///< iterations per run (one run = one operation)
  int pes = 4;
};

[[nodiscard]] bool is_stencil(const std::string& workload);
/// The workload's stencil shape; pool-map gets stencil-fine's.
[[nodiscard]] StencilCfg stencil_cfg(const std::string& workload, bool smoke);
/// Face messages one iteration sends (each block to each neighbour).
[[nodiscard]] std::int64_t faces_per_step(const stencil::Geometry& g);
[[nodiscard]] std::int64_t face_bytes(const stencil::Geometry& g);
[[nodiscard]] double cells_per_step(const stencil::Geometry& g);

/// Everything one measuring pass of a workload produced. A step is one
/// stencil iteration or one pool job; timings cover checked-OK
/// operations only.
struct Pass {
  std::vector<double> step_s;   ///< one sample per run (stencil) or job
  std::vector<double> job_s;    ///< run elapsed (stencil) or job latency
  std::vector<double> setup_s;  ///< call wall time minus run elapsed
  std::vector<double> rss_mb;   ///< peak RSS of single operations
  std::vector<double> rate;     ///< per run: tasks (block updates) per s
  double steps = 0.0;           ///< iterations or jobs completed
  double lifetime_pe_s = 0.0;   ///< summed runtime lifetime x PEs
  double worker_s = 0.0;        ///< pool: summed job latency x workers
  int pes = 0;

  // Counters summed over the OK runs (traced passes read cx::trace).
  cx::trace::WireStats wire{};
  cx::trace::WhenEngineStats when{};
  cx::trace::PoolStats pool{};
  cx::trace::Counters agg{};
  std::vector<double> pe_busy_s;
  bool rank0_only = false;  ///< counters came from cxrun rank 0 alone

  /// Checked-OK operations left out of the timings because the host
  /// took more than kMaxStealShare of the CPU time while they ran.
  int steal_dropped = 0;
  /// Too few operations ran on a quiet host, so every operation is timed.
  bool steal_fallback = false;
};

/// An operation is timed only if steal time (the hypervisor running other
/// guests on this machine's CPUs) stayed at or below this share of all
/// CPU time while it ran. On a quiet host steal reads under 1 %; during
/// contention it reads 10-35 % for tens of seconds, and the lockstep
/// workloads then slow down by 30-90 %.
inline constexpr double kMaxStealShare = 0.03;
/// A pass keeps making operations until those on a quiet host add up to
/// its budget, but stops after this many times the budget.
inline constexpr double kMeasureCap = 2.0;
/// Fewer quiet operations than this, and every operation is timed.
inline constexpr int kMinQuietOps = 5;

/// Run `o.workload` for about `budget_s` seconds of operations on a quiet
/// host (after one warm-up operation), check every operation's output,
/// count each in `rep`.
/// `traced` turns on cx::trace and records spans. `fresh` takes the
/// set-up and peak-RSS samples from runs in forked processes of their
/// own: every threaded stencil run, every cxrun launch, and a few extra
/// pool runs.
Pass run_pass(const Opts& o, Report& rep, double budget_s, bool traced,
              bool fresh);

/// Turn cx::trace event recording on (small rings, no report) or off.
void enable_trace(bool on);

/// One line a rank printed ("PBR key=value ..."), parsed.
using RankLine = std::map<std::string, double>;

/// Launch `cxrun -np 2 -ppn 1 <self> --rank-job <args>` and collect the
/// rank lines. Throws on a nonzero exit or after `timeout_s`.
std::vector<RankLine> launch_ranks(const Opts& o,
                                   const std::vector<std::string>& args,
                                   double timeout_s);

/// This process's always-on wire/when counters and, when traced, its
/// cx::trace totals, as "key=value" words (rank side of a cxrun job).
std::string counters_kv(bool traced);
/// Read counters_kv() words back (absent keys read 0).
void counters_from(const RankLine& line, cx::trace::WireStats& wire,
                   cx::trace::WhenEngineStats& when,
                   cx::trace::Counters& agg);

/// Raw cxm::Machine ping-pong between PE 0 and PE 1 at kLadderBytes,
/// then a windowed 1 MiB stream from PE 0 to PE 1. Runs the machine
/// until the ladder finishes; results are filled on the process hosting
/// PE 0.
inline const std::vector<std::size_t> kLadderBytes = {8, 512, 32768,
                                                      1u << 20};
struct Ladder {
  std::vector<double> oneway_us;  ///< per kLadderBytes entry
  double stream_MBps = 0.0;
};
Ladder machine_ladder(cxm::Machine& m, bool smoke);
/// "8B", "512B", "2KiB", "32KiB", "1MiB".
std::string size_label(std::size_t bytes);

}  // namespace pb
