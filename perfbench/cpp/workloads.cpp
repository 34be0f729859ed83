// The four workloads and their measuring passes.
//
//   stencil-coarse  typed cx stencil3d, 4 threaded PEs, 2x2x2 blocks of
//                   64^3 cells: kernel- and copy-bound (the control for
//                   any per-message change).
//   stencil-fine    dynamic cpy stencil3d, 4 threaded PEs, 4x4x4 blocks
//                   of 8^3 cells: per-message cost dominates.
//   pool-map        cxpool::Pool on 4 threaded PEs, closed loop of two
//                   clients each keeping one 2000-task map_async job in
//                   flight, on 2 and 1 of the 3 free workers.
//   stencil-cxrun   typed cx stencil3d under cxrun -np 2 -ppn 1, 4x4x2
//                   blocks of 16^3 cells: the TCP transport.
//
// One stencil operation is one full run (Runtime bring-up, the
// iterations, the checksum reduction); one pool operation is one job.
// Stencil checksums are checked against stencil::serial_checksum, and a
// cxrun checksum must also equal the threaded run's; every
// pool job is checked element-wise against the task function applied
// serially. Checks run after the timed loop, so computing the oracle
// moves neither the timings nor the peak-RSS reading.

#include "workloads.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/stencil/stencil_cpy.hpp"
#include "apps/stencil/stencil_cx.hpp"
#include "core/charm.hpp"
#include "pool/pool.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace pb {

// ---- shapes ----------------------------------------------------------------

const std::vector<WorkloadInfo>& workloads() {
  // cxrun: 2 ranks x (1 worker PE + 1 comm thread).
  static const std::vector<WorkloadInfo> w = {{"stencil-coarse", 4},
                                              {"stencil-fine", 4},
                                              {"pool-map", 4},
                                              {"stencil-cxrun", 4}};
  return w;
}

bool is_stencil(const std::string& w) { return w != "pool-map"; }

// Iterations per run put a 15 s measurement at about 65 runs of 0.23 s,
// the middle of the p75 tail rung (40 to 99 samples; see tail_of): long
// runs average the host's second-scale noise and amortise each fresh
// process's page faults, and the tail percentile stays put when the
// program gets up to 1.5x faster or slower.
StencilCfg stencil_cfg(const std::string& w, bool smoke) {
  StencilCfg c;
  if (w == "stencil-coarse") {
    c.geo = {2, 2, 2, 64, 64, 64};
    c.iters = 190;
  } else if (w == "stencil-cxrun") {
    c.cxrun = true;
    c.geo = {4, 4, 2, 16, 16, 16};
    c.iters = 825;
    c.pes = 2;
  } else {  // stencil-fine, and the shape pool-map's probes use
    c.dynamic = true;
    c.geo = {4, 4, 4, 8, 8, 8};
    c.iters = 600;
  }
  if (smoke) {
    c.geo.nx = c.geo.ny = c.geo.nz = 4;
    c.iters = 2;
  }
  return c;
}

std::int64_t faces_per_step(const stencil::Geometry& g) {
  std::int64_t n = 0;
  for (int x = 0; x < g.bx; ++x) {
    for (int y = 0; y < g.by; ++y) {
      for (int z = 0; z < g.bz; ++z) n += stencil::neighbor_count(g, x, y, z);
    }
  }
  return n;
}

std::int64_t face_bytes(const stencil::Geometry& g) {
  return stencil::kern::face_cells(g.nx, g.ny, g.nz, 0) *
         static_cast<std::int64_t>(sizeof(double));
}

double cells_per_step(const stencil::Geometry& g) {
  return static_cast<double>(g.num_blocks() * g.cells_per_block());
}

// ---- counters --------------------------------------------------------------

void enable_trace(bool on) {
  cx::trace::reset();
  if (!on) return;
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  tc.buffer_events = 1u << 12;  // counters are what is read; keep rings small
  cx::trace::configure(tc);
}

namespace {

void add(cx::trace::WireStats& a, const cx::trace::WireStats& b) {
  a.envelopes += b.envelopes;
  a.bytes_packed += b.bytes_packed;
  a.sbo_payloads += b.sbo_payloads;
  a.buf_allocs += b.buf_allocs;
  a.buf_hits += b.buf_hits;
  a.msg_allocs += b.msg_allocs;
  a.msg_hits += b.msg_hits;
  a.env_allocs += b.env_allocs;
  a.env_hits += b.env_hits;
  a.transport_msgs += b.transport_msgs;
}

void add(cx::trace::WhenEngineStats& a, const cx::trace::WhenEngineStats& b) {
  a.tests += b.tests;
  a.hits += b.hits;
  a.buffered += b.buffered;
  a.skipped += b.skipped;
  a.high_water = std::max(a.high_water, b.high_water);
}

void add(cx::trace::PoolStats& a, const cx::trace::PoolStats& b) {
  a.grants += b.grants;
  a.granted_tasks += b.granted_tasks;
  a.steal_attempts += b.steal_attempts;
  a.steal_hits += b.steal_hits;
  a.result_batches += b.result_batches;
  a.tasks_done += b.tasks_done;
  a.task_ns_sum += b.task_ns_sum;
  for (int i = 0; i < cx::trace::kPoolLatBuckets; ++i) {
    a.lat_hist[i] += b.lat_hist[i];
  }
}

/// Counters of one operation, taken right after it.
struct OpCounters {
  cx::trace::WireStats wire{};
  cx::trace::WhenEngineStats when{};
  cx::trace::PoolStats pool{};
  cx::trace::Counters agg{};
  std::vector<double> pe_busy_s;
};

OpCounters read_counters(bool traced) {
  OpCounters c;
  c.wire = cx::trace::wire_stats();
  c.when = cx::trace::when_stats();
  c.pool = cx::trace::pool_stats();
  if (traced) {
    c.agg = cx::trace::aggregate();
    for (int pe = 0; pe < cx::trace::traced_pes(); ++pe) {
      c.pe_busy_s.push_back(cx::trace::counters(pe).entry_time);
    }
  }
  return c;
}

void accumulate(Pass& p, const OpCounters& c) {
  add(p.wire, c.wire);
  add(p.when, c.when);
  add(p.pool, c.pool);
  p.agg.merge(c.agg);
  if (p.pe_busy_s.size() < c.pe_busy_s.size()) {
    p.pe_busy_s.resize(c.pe_busy_s.size(), 0.0);
  }
  for (std::size_t i = 0; i < c.pe_busy_s.size(); ++i) {
    p.pe_busy_s[i] += c.pe_busy_s[i];
  }
}

/// Read `fd` to EOF, giving up at `deadline` (sets *timed_out).
std::string read_all(int fd, double deadline, bool* timed_out) {
  std::string text;
  *timed_out = false;
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0) {
      *timed_out = true;
      break;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) < 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return text;
}

/// Run `body` in a forked child of this (single-threaded) process and
/// return what it produced. The child starts from this process's small
/// heap, so its peak RSS is the operation's memory footprint.
struct ChildOut {
  std::string text;
  double rss_mb = 0.0;
  std::string error;
};

ChildOut in_child(const std::function<std::string()>& body,
                  double timeout_s) {
  ChildOut out;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string text;
    try {
      text = body();
    } catch (const std::exception& e) {
      text = std::string("ERROR ") + e.what();
    }
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0 && errno != EINTR) break;
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  bool timed_out = false;
  out.text = read_all(fds[0], now_s() + timeout_s, &timed_out);
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
  if (timed_out) {
    out.error = "operation timed out";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.error = "operation process ended with status " +
                std::to_string(status);
  } else if (out.text.rfind("ERROR ", 0) == 0) {
    out.error = out.text.substr(6);
  }
  return out;
}

// pool-map times its runs in this process (a warm, long-lived pool)
// and takes set-up time and peak RSS from this many extra runs in fresh
// processes: inside one process a run reuses whatever heap earlier runs
// left, so its set-up time and footprint depend on the allocator's
// history.
constexpr int kFreshOps = 8;

/// Append operations made by `make(index)` to `ops` until those made
/// while steal stayed at or below kMaxStealShare add up to `budget_s` of
/// wall time, or kMeasureCap x `budget_s` has passed. Each operation's
/// steal share is stored in its `steal`.
template <typename Op, typename Make>
void measure_quiet(std::vector<Op>& ops, double budget_s, const Make& make) {
  double quiet_s = 0.0;
  const double give_up = now_s() + kMeasureCap * budget_s;
  do {
    const CpuTimes c0 = cpu_times();
    const double t0 = now_s();
    Op op = make(ops.size());
    op.steal = steal_share(c0, cpu_times());
    if (op.steal <= kMaxStealShare) quiet_s += now_s() - t0;
    ops.push_back(std::move(op));
  } while (quiet_s < budget_s && now_s() < give_up);
}

/// Whether the timings may leave out the operations made under steal:
/// only when enough operations after the warm-up (ops[0]) were quiet.
template <typename Op>
bool drop_stolen(const std::vector<Op>& ops) {
  return std::count_if(ops.begin() + 1, ops.end(), [](const Op& op) {
           return op.steal <= kMaxStealShare;
         }) >= kMinQuietOps;
}

// ---- stencil operations ----------------------------------------------------

struct StencilOp {
  double call_s = 0.0;
  double elapsed_s = 0.0;
  double checksum = 0.0;
  double rss_mb = 0.0;  ///< peak RSS of the operation's process(es)
  double steal = 0.0;   ///< host steal share while it ran
  std::string error;
  OpCounters counters;
};

StencilOp stencil_threaded(const StencilCfg& c, bool traced,
                           std::uint64_t op) {
  stencil::Params p;
  p.geo = c.geo;
  p.iterations = c.iters;
  cxm::MachineConfig m;
  m.num_pes = c.pes;
  StencilOp out;
  const int span = traced ? spans().begin(c.dynamic ? "stencil.run_cpy"
                                                    : "stencil.run_cx",
                                          SpanLog::kCurrent, op)
                          : -1;
  const double t0 = now_s();
  try {
    const stencil::Result r =
        c.dynamic ? stencil::run_cpy(p, m) : stencil::run_cx(p, m);
    out.elapsed_s = r.elapsed;
    out.checksum = r.checksum;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.call_s = now_s() - t0;
  if (span >= 0) spans().end(span, c.iters);
  out.counters = read_counters(traced);
  return out;
}

std::vector<std::string> stencil_rank_args(const StencilCfg& c,
                                           bool traced) {
  const auto& g = c.geo;
  std::ostringstream geo;
  geo << g.bx << ',' << g.by << ',' << g.bz << ',' << g.nx << ',' << g.ny
      << ',' << g.nz;
  return {"stencil", geo.str(), std::to_string(c.iters),
          traced ? "1" : "0"};
}

StencilOp stencil_cxrun(const Opts& o, const StencilCfg& c, bool traced,
                        std::uint64_t op) {
  StencilOp out;
  const int span =
      traced ? spans().begin("cxrun.stencil", SpanLog::kCurrent, op) : -1;
  const double t0 = now_s();
  try {
    const std::vector<RankLine> lines =
        launch_ranks(o, stencil_rank_args(c, traced), 20.0);
    out.call_s = now_s() - t0;
    const RankLine* r0 = nullptr;
    for (const RankLine& l : lines) {
      out.rss_mb += l.at("rss_kb") * 1024.0 / 1e6;
      if (l.at("rank") == 0) r0 = &l;
    }
    if (r0 == nullptr || lines.size() != 2) {
      throw std::runtime_error("cxrun job did not report both ranks");
    }
    out.elapsed_s = r0->at("elapsed");
    out.checksum = r0->at("checksum");
    counters_from(*r0, out.counters.wire, out.counters.when,
                  out.counters.agg);
    if (traced) out.counters.pe_busy_s = {out.counters.agg.entry_time};
  } catch (const std::exception& e) {
    out.call_s = now_s() - t0;
    out.error = e.what();
  }
  if (span >= 0) spans().end(span, c.iters);
  return out;
}

/// A threaded stencil operation in its own process.
StencilOp stencil_isolated(const StencilCfg& c, std::uint64_t op) {
  const ChildOut ch = in_child(
      [&] {
        const StencilOp r = stencil_threaded(c, false, op);
        if (!r.error.empty()) throw std::runtime_error(r.error);
        return jnum(r.call_s) + " " + jnum(r.elapsed_s) + " " +
               jnum(r.checksum);
      },
      60.0);
  StencilOp out;
  out.error = ch.error;
  out.rss_mb = ch.rss_mb;
  std::istringstream is(ch.text);
  if (out.error.empty() &&
      !(is >> out.call_s >> out.elapsed_s >> out.checksum)) {
    out.error = "unreadable operation result '" + ch.text + "'";
  }
  return out;
}

/// `fresh`: every threaded run in a process of its own, like every
/// cxrun launch, so no run inherits the heap and allocator state that
/// earlier runs left.
Pass stencil_pass(const Opts& o, Report& rep, double budget_s, bool traced,
                  bool fresh) {
  const StencilCfg c = stencil_cfg(o.workload, o.smoke);
  auto once = [&](std::uint64_t op) {
    if (c.cxrun) return stencil_cxrun(o, c, traced, op);
    return fresh ? stencil_isolated(c, op) : stencil_threaded(c, traced, op);
  };
  // ops[0] warms up page cache and first-use set-up: it is checked and
  // counted like every other run, but not timed.
  std::vector<StencilOp> ops = {once(0)};
  measure_quiet(ops, budget_s, once);

  Pass pass;
  pass.pes = c.pes;
  pass.rank0_only = c.cxrun;
  pass.steal_fallback = !drop_stolen(ops);

  // The oracle, outside every timed span.
  double ref = stencil::serial_checksum(c.geo, c.iters);
  double threaded_ref = 0.0;
  if (c.cxrun) {
    stencil::Params p;
    p.geo = c.geo;
    p.iterations = c.iters;
    cxm::MachineConfig m;
    m.num_pes = 4;
    threaded_ref = stencil::run_cx(p, m).checksum;
  }
  if (o.corrupt_expected) {
    ref = ref * 1.5 + 1.0;
    threaded_ref = threaded_ref * 1.5 + 1.0;
  }
  auto check = [&](const StencilOp& op) {
    std::string err = op.error;
    if (err.empty()) {
      const double rel = std::fabs(op.checksum - ref) /
                         std::max(std::fabs(ref), 1e-300);
      if (!(rel <= kChecksumRelTol)) {
        err = "checksum " + jnum(op.checksum) + " vs serial " + jnum(ref) +
              " (rel. error " + jnum(rel) + ")";
      } else if (c.cxrun && !(std::fabs(op.checksum - threaded_ref) <=
                               kCrossBackendRelTol *
                                   std::fabs(threaded_ref))) {
        err = "cxrun checksum " + jnum(op.checksum) +
              " differs from the threaded run's " + jnum(threaded_ref);
      }
    }
    rep.op(err.empty() ? "" : o.workload + ": " + err);
    return err.empty();
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const StencilOp& op = ops[i];
    if (!check(op) || i == 0) continue;
    if (!pass.steal_fallback && op.steal > kMaxStealShare) {
      ++pass.steal_dropped;
      continue;
    }
    pass.step_s.push_back(op.elapsed_s / c.iters);
    pass.job_s.push_back(op.elapsed_s);
    pass.setup_s.push_back(op.call_s - op.elapsed_s);
    pass.rss_mb.push_back(op.rss_mb);
    pass.rate.push_back(static_cast<double>(c.geo.num_blocks()) * c.iters /
                        op.elapsed_s);
    pass.steps += c.iters;
    pass.lifetime_pe_s += op.call_s * (c.cxrun ? 1 : c.pes);
    accumulate(pass, op.counters);
  }
  return pass;
}

// ---- pool-map --------------------------------------------------------------

constexpr int kPoolPes = 4;
// PE 0 hosts the pool master, so PEs 1..3 are the free workers: client
// 0 asks for two and client 1 for one, and both jobs always run side by
// side without a request ever being clamped.
constexpr int kJobProcs[2] = {2, 1};
constexpr int kDistinctJobs = 16;
constexpr std::uint64_t kLightRounds = 400;   // ~1 us of xorshift
constexpr std::uint64_t kHeavyRounds = 4000;  // ~10 us: the heavy tail
constexpr std::uint64_t kHeavyOneIn = 10;

/// The task function: `rounds` (low 20 bits of x) xorshift steps from a
/// key (the high bits). Deterministic, so results check exactly.
std::int64_t spin(std::int64_t x) {
  const auto u = static_cast<std::uint64_t>(x);
  const std::uint64_t rounds = u & 0xfffff;
  std::uint64_t s = (u >> 20) | 1;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
  }
  return static_cast<std::int64_t>(s >> 1);
}

struct PoolInputs {
  std::vector<cpy::List> jobs;
  std::vector<std::vector<std::int64_t>> expected;
  std::vector<int> order;  ///< submit order (client c takes every 2nd)
};

PoolInputs make_pool_inputs(std::uint64_t seed, bool smoke, bool corrupt) {
  cxu::Rng rng(seed);
  const int tasks = smoke ? 50 : 2000;
  PoolInputs in;
  for (int j = 0; j < kDistinctJobs; ++j) {
    cpy::List l;
    std::vector<std::int64_t> want;
    for (int t = 0; t < tasks; ++t) {
      const std::uint64_t rounds =
          rng.next() % kHeavyOneIn == 0 ? kHeavyRounds : kLightRounds;
      const auto x = static_cast<std::int64_t>(
          ((rng.next() & ((1ull << 40) - 1)) << 20) | rounds);
      l.emplace_back(x);
      want.push_back(spin(x) + (corrupt ? 1 : 0));
    }
    in.jobs.push_back(std::move(l));
    in.expected.push_back(std::move(want));
  }
  for (int k = 0; k < 1024; ++k) {
    in.order.push_back(static_cast<int>(rng.next() % kDistinctJobs));
  }
  return in;
}

struct ClientOut {
  std::vector<double> lat_s;
  std::int64_t tasks = 0;
  std::int64_t warm = 0;  ///< checked warm-up jobs, not timed
  std::int64_t failed = 0;
  std::string first_error;
  void pup(pup::Er& p) {
    p | lat_s;
    p | tasks;
    p | warm;
    p | failed;
    p | first_error;
  }
};

// The clients run on PE 0 next to the pool master and read the pool and
// the inputs through these (one runtime at a time, one process).
const cxpool::Pool* g_pool = nullptr;
const PoolInputs* g_inputs = nullptr;
int g_run_span = -1;

class PoolClient : public cx::Chare {
 public:
  /// Closed loop: submit, wait for the result, check it, repeat until
  /// `deadline`. The first job on a fresh pool warms it up (fiber
  /// stacks, pool blocks, first touch): it is checked but not timed.
  ClientOut loop(int client, double deadline) {
    ClientOut out;
    for (int k = 0; now_s() < deadline; ++k) {
      const std::size_t slot =
          (2 * static_cast<std::size_t>(k) + static_cast<std::size_t>(client)) %
          g_inputs->order.size();
      const int j = g_inputs->order[slot];
      const int span =
          g_run_span >= 0
              ? spans().begin("pool.map_async", g_run_span,
                              static_cast<std::uint64_t>(2 * k + client))
              : -1;
      const double t0 = now_s();
      const cpy::Value v =
          g_pool->map_async("pb.spin", kJobProcs[client], g_inputs->jobs[j])
              .get();
      const double lat = now_s() - t0;
      const auto& want = g_inputs->expected[j];
      if (span >= 0) spans().end(span, static_cast<double>(want.size()));
      std::string err;
      if (cxpool::is_error(v)) {
        err = "job failed: " + cxpool::error_message(v);
      } else if (v.as_list().size() != want.size()) {
        err = "job returned " + std::to_string(v.as_list().size()) +
              " results for " + std::to_string(want.size()) + " tasks";
      } else {
        const cpy::List& got = v.as_list();
        for (std::size_t i = 0; i < want.size() && err.empty(); ++i) {
          if (got[i].as_int() != want[i]) {
            err = "task " + std::to_string(i) + " returned " +
                  std::to_string(got[i].as_int()) + ", expected " +
                  std::to_string(want[i]);
          }
        }
      }
      if (!err.empty()) {
        ++out.failed;
        if (out.first_error.empty()) out.first_error = err;
        continue;
      }
      out.tasks += static_cast<std::int64_t>(want.size());
      if (k == 0) {
        ++out.warm;
      } else {
        out.lat_s.push_back(lat);
      }
    }
    return out;
  }
};

struct PoolRegistrar {
  PoolRegistrar() {
    cx::set_threaded<&PoolClient::loop>();
    cxpool::register_function("pb.spin", [](const cpy::Value& x) {
      return cpy::Value(spin(x.as_int()));
    });
  }
};
const PoolRegistrar pool_registrar;

struct PoolRun {
  double call_s = 0.0;
  double elapsed_s = 0.0;
  double rss_mb = 0.0;  ///< pool_isolated: the run's peak RSS
  double steal = 0.0;   ///< host steal share while it ran
  ClientOut c[2];
  OpCounters counters;
};

PoolRun pool_run(double run_s, bool traced, std::uint64_t op) {
  PoolRun out;
  g_run_span = traced ? spans().begin("pool.run", SpanLog::kCurrent, op) : -1;
  const double t0 = now_s();
  {
    cx::RuntimeConfig cfg;
    cfg.machine.num_pes = kPoolPes;
    cx::Runtime rt(cfg);
    rt.run([&] {
      const cxpool::Pool pool;
      g_pool = &pool;
      auto c0 = cx::create_chare<PoolClient>(0);
      auto c1 = cx::create_chare<PoolClient>(0);
      const double start = now_s();
      const double deadline = start + run_s;
      auto f0 = c0.call<&PoolClient::loop>(0, deadline);
      auto f1 = c1.call<&PoolClient::loop>(1, deadline);
      out.c[0] = f0.get();
      out.c[1] = f1.get();
      out.elapsed_s = now_s() - start;
      g_pool = nullptr;
      cx::exit();
    });
  }
  out.call_s = now_s() - t0;
  if (g_run_span >= 0) spans().end(g_run_span);
  g_run_span = -1;
  out.counters = read_counters(traced);
  return out;
}

/// A pool run in its own process; its times and client results travel
/// back PUPed.
PoolRun pool_isolated(double run_s, std::uint64_t op) {
  const ChildOut ch = in_child(
      [&] {
        PoolRun r = pool_run(run_s, false, op);
        const std::vector<std::byte> b =
            pup::pack_args(r.call_s, r.elapsed_s, r.c[0], r.c[1]);
        return std::string(reinterpret_cast<const char*>(b.data()), b.size());
      },
      run_s + 60.0);
  if (!ch.error.empty()) throw std::runtime_error("pool run: " + ch.error);
  PoolRun out;
  pup::Unpacker u(ch.text.data(), ch.text.size());
  try {
    u | out.call_s;
    u | out.elapsed_s;
    u | out.c[0];
    u | out.c[1];
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("pool run: unreadable result: ") +
                             e.what());
  }
  if (u.offset() != ch.text.size()) {
    throw std::runtime_error("pool run: unreadable result: trailing bytes");
  }
  out.rss_mb = ch.rss_mb;
  return out;
}

Pass pool_pass(const Opts& o, Report& rep, double budget_s, bool traced,
               bool fresh) {
  const PoolInputs in =
      make_pool_inputs(o.seed, o.smoke, o.corrupt_expected);
  g_inputs = &in;
  // Short runs, so that a run often falls between bursts of steal.
  const double run_s = std::clamp(budget_s / 32.0, 0.05, 0.5);
  // Short fresh runs first, while this process's own heap is still small.
  std::vector<PoolRun> fresh_runs;
  for (int i = 0; fresh && i < kFreshOps; ++i) {
    fresh_runs.push_back(pool_isolated(std::min(run_s, 0.25), 0));
  }
  // runs[0] is a warm-up: its jobs are checked and counted, not timed.
  std::vector<PoolRun> runs = {pool_run(std::min(run_s, 0.2), traced, 0)};
  measure_quiet(runs, budget_s - 0.5 * run_s, [&](std::size_t i) {
    return pool_run(run_s, traced, i);
  });
  g_inputs = nullptr;

  // Every job is checked; only timed-pass jobs enter the timings.
  auto count = [&](const PoolRun& r) {
    double tasks = 0.0;
    for (const ClientOut& c : r.c) {
      for (std::size_t j = 0; j < c.lat_s.size(); ++j) rep.op("");
      for (std::int64_t w = 0; w < c.warm; ++w) rep.op("");
      for (std::int64_t f = 0; f < c.failed; ++f) {
        rep.op("pool-map: " + c.first_error);
      }
      tasks += static_cast<double>(c.tasks);
    }
    return tasks;
  };
  Pass pass;
  pass.pes = kPoolPes;
  pass.steal_fallback = !drop_stolen(runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PoolRun& r = runs[i];
    const double tasks = count(r);
    if (i == 0) continue;
    if (!pass.steal_fallback && r.steal > kMaxStealShare) {
      ++pass.steal_dropped;
      continue;
    }
    pass.rate.push_back(tasks / r.elapsed_s);
    for (int ci = 0; ci < 2; ++ci) {
      for (const double l : r.c[ci].lat_s) {
        pass.step_s.push_back(l);
        pass.job_s.push_back(l);
        pass.worker_s += l * kJobProcs[ci];
      }
      pass.steps += static_cast<double>(r.c[ci].lat_s.size());
    }
    if (!fresh) pass.setup_s.push_back(r.call_s - r.elapsed_s);
    pass.lifetime_pe_s += r.call_s * kPoolPes;
    accumulate(pass, r.counters);
  }
  for (const PoolRun& r : fresh_runs) {
    (void)count(r);
    if (r.c[0].failed + r.c[1].failed > 0) continue;
    pass.setup_s.push_back(r.call_s - r.elapsed_s);
    pass.rss_mb.push_back(r.rss_mb);
  }
  return pass;
}

}  // namespace

Pass run_pass(const Opts& o, Report& rep, double budget_s, bool traced,
              bool fresh) {
  enable_trace(traced);
  Pass p;
  {
    std::unique_ptr<ScopedSpan> root;
    if (traced) root = std::make_unique<ScopedSpan>("pass." + o.workload);
    p = is_stencil(o.workload)
            ? stencil_pass(o, rep, budget_s, traced, fresh)
            : pool_pass(o, rep, budget_s, traced, fresh);
  }
  enable_trace(false);
  return p;
}

// ---- cxrun launcher --------------------------------------------------------

std::vector<RankLine> launch_ranks(const Opts& o,
                                   const std::vector<std::string>& args,
                                   double timeout_s) {
  std::vector<std::string> words = {o.cxrun_exe, "-np", "2", "-ppn", "1",
                                    o.self_exe, "--rank-job"};
  words.insert(words.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  // Own process group, so a hung job is killed with all its ranks.
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &fa, &attr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error(std::string("cannot start cxrun: ") +
                             std::strerror(rc));
  }

  bool timed_out = false;
  const std::string text = read_all(fds[0], now_s() + timeout_s, &timed_out);
  ::close(fds[0]);
  if (timed_out) ::kill(-pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    throw std::runtime_error("cxrun job timed out after " +
                             std::to_string(timeout_s) + " s");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("cxrun job exited with status " +
                             std::to_string(status));
  }
  std::vector<RankLine> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("PBR ", 0) != 0) continue;
    RankLine kv;
    std::istringstream ls(line.substr(4));
    std::string tok;
    while (ls >> tok) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) continue;
      kv[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
    lines.push_back(std::move(kv));
  }
  return lines;
}

// ---- end-to-end metrics (trace 0) ------------------------------------------

namespace {

std::string tail_note(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples", t.percentile,
                t.samples);
  return buf;
}

}  // namespace

void measure_workload(const Opts& o, Report& rep) {
  const Pass p = run_pass(o, rep, o.seconds, false, true);
  if (p.step_s.empty()) return;  // every operation failed: nothing timed
  const bool pool = !is_stencil(o.workload);
  const Tail st = tail_of(p.step_s);
  const Tail jt = tail_of(p.job_s);
  rep.e2e("setup_s", median(p.setup_s), "s",
          "median of " + std::to_string(p.setup_s.size()) +
              " set-ups in fresh processes: call wall time minus the "
              "run's elapsed");
  rep.e2e("step_ms_p50", median(p.step_s) * 1e3, "ms",
          pool ? "a pool step is one job"
               : "per iteration, one sample per run");
  rep.e2e("step_ms_tail", st.value * 1e3, "ms", tail_note(st));
  rep.e2e("tasks_per_s", median(p.rate), "1/s",
          pool ? "median over runs of pool tasks done per second"
               : "median over runs of block updates per second");
  rep.e2e("job_ms_p50", median(p.job_s) * 1e3, "ms",
          pool ? "submit until the future resolves"
               : "a stencil job is one whole run");
  rep.e2e("job_ms_tail", jt.value * 1e3, "ms", tail_note(jt));
  rep.e2e("peak_rss_mb", median(p.rss_mb), "MB",
          is_stencil(o.workload) && stencil_cfg(o.workload, o.smoke).cxrun
              ? "median over launches of the ranks' summed peak RSS"
              : "median over fresh-process runs");
  rep.info("steal_dropped_ops", p.steal_dropped);
  rep.info("steal_filter", p.steal_fallback ? "off (too few quiet operations)"
                                            : "on");
  if (p.steal_fallback) {
    std::fprintf(stderr,
                 "perfbench: warning: the host was busy with other guests "
                 "(steal above %g%%) for most of the run; the timings "
                 "include that slowdown\n",
                 100.0 * kMaxStealShare);
  }
  rep.info("step_tail_percentile", st.percentile);
  rep.info("step_samples", static_cast<double>(st.samples));
  rep.info("job_tail_percentile", jt.percentile);
  rep.info("job_samples", static_cast<double>(jt.samples));
  // In measuring order, so drift within a run can be seen.
  rep.samples("step_s_samples", p.step_s);
  rep.samples("setup_s_samples", p.setup_s);
}

}  // namespace pb
