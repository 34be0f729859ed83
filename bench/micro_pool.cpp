// Pool throughput A/B (paper §III): the per-task request/grant protocol
// of the paper vs the chunked + work-stealing task engine, on the
// simulated backend where messaging costs are modeled deterministically.
//
// The OFF case forces the engine back to the seed's shape — one task
// per grant, no stealing, no decoupled beats — so the master handles
// two envelopes per task. The ON case runs the real engine: adaptive
// chunked grants, batched results, randomized stealing. Task costs are
// skewed (the first eighth of the ids cost 2.5 µs, the rest 0.5 µs) so a
// naive static split leaves a straggler and the stealing path must
// fire to win.
//
// Both cases must produce byte-identical ordered result sets; the
// process exits nonzero on any mismatch.
//
//   ./bench/micro_pool [--pes 8] [--tasks 100000] [--json [path]]
//                      [--pool-chunk N|auto] [--pool-steal on|off]
//                      [--pool-max-inflight N] [--pool-quantum N]
//                      [--pool-batch N] [--pool-beat-ms MS]
//                      [--pool-steal-retries N]
//
// --json with no value writes BENCH_pool.json. The --pool-* flags
// shape the ON case (the OFF case is always the degraded baseline).

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "pool/pool.hpp"
#include "util/main_guard.hpp"

namespace {

struct CaseResult {
  double elapsed = 0.0;     ///< virtual seconds (PE 0 clock around map)
  double tasks_per_s = 0.0;
  std::uint64_t hash = 0;   ///< FNV-1a over the ordered result ints
  std::uint64_t bad = 0;    ///< missing / non-integer results
  cx::trace::PoolStats stats;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

CaseResult run_case(int pes, int ntasks, const cxpool::PoolConfig& pc) {
  cxpool::configure(pc);
  CaseResult r;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = pes;
  cfg.machine.backend = cxm::Backend::Sim;
  cx::Runtime rt(cfg);
  rt.run([&] {
    cxpool::Pool pool;
    cpy::List items;
    items.reserve(static_cast<std::size_t>(ntasks));
    for (int i = 0; i < ntasks; ++i) items.emplace_back(i);
    const double t0 = cx::now();
    const cpy::Value out = pool.map("skew", pes - 1, items);
    r.elapsed = cx::now() - t0;
    r.hash = 0xcbf29ce484222325ULL;
    if (cxpool::is_error(out) ||
        out.length() != static_cast<std::uint64_t>(ntasks)) {
      r.bad = static_cast<std::uint64_t>(ntasks);
    } else {
      for (const cpy::Value& v : out.as_list()) {
        if (v.kind() != cpy::Kind::Int) {
          ++r.bad;
          continue;
        }
        r.hash = fnv1a(r.hash, static_cast<std::uint64_t>(v.as_int()));
      }
    }
    cx::exit();
  });
  r.stats = cx::trace::pool_stats();
  r.tasks_per_s = r.elapsed > 0 ? ntasks / r.elapsed : 0.0;
  return r;
}

void json_case(std::FILE* f, const char* name, const CaseResult& r) {
  const cx::trace::PoolStats& s = r.stats;
  std::fprintf(
      f,
      "\"%s\":{\"tasks_per_s\":%.0f,\"elapsed_s\":%.6f,"
      "\"grants\":%llu,\"mean_chunk\":%.1f,\"max_chunk\":%llu,"
      "\"steal_attempts\":%llu,\"steal_hits\":%llu,\"stolen_tasks\":%llu,"
      "\"result_batches\":%llu,\"beats\":%llu,"
      "\"mean_task_us\":%.3f,\"p99_task_us\":%.3f}",
      name, r.tasks_per_s, r.elapsed,
      static_cast<unsigned long long>(s.grants), s.mean_chunk(),
      static_cast<unsigned long long>(s.max_chunk),
      static_cast<unsigned long long>(s.steal_attempts),
      static_cast<unsigned long long>(s.steal_hits),
      static_cast<unsigned long long>(s.stolen_tasks),
      static_cast<unsigned long long>(s.result_batches),
      static_cast<unsigned long long>(s.beats), s.mean_task_s() * 1e6,
      s.p99_task_s() * 1e6);
}

}  // namespace

int run_main(int argc, char** argv) {
  // Declared booleans never swallow a following positional, so
  // `micro_pool --pool-steal 100000` keeps its task count.
  cxu::Options opt(argc, argv, {"pool-steal", "trace"});
  bench::trace_from_options(opt);
  // Strict validation: a malformed --pool-* or --tasks value aborts with
  // a message instead of silently running a different experiment.
  cxpool::configure_from_options(opt);
  const int pes = static_cast<int>(opt.get_int("pes", 8));
  const int tasks = static_cast<int>(opt.get_int("tasks", 100000));

  const int64_t fat = tasks / 8;
  cxpool::register_function("skew", [fat](const cpy::Value& x) {
    const std::int64_t id = x.as_int();
    cx::compute(id < fat ? 2.5e-6 : 0.5e-6);
    return cpy::Value(id * id % 1000003);
  });

  std::printf(
      "micro_pool: %d tasks on %d simulated PEs (skewed grain: first "
      "eighth 2.5us, rest 0.5us)\n\n",
      tasks, pes);

  // OFF: the seed's per-task protocol (1-task grants, no stealing, no
  // decoupled beats). ON: whatever the --pool-* flags say (defaults:
  // guided chunks + stealing + beats).
  const cxpool::PoolConfig on = cxpool::config();
  cxpool::PoolConfig off = on;
  off.chunk = 1;
  off.steal = false;
  off.beat_s = 0.0;
  const CaseResult roff = run_case(pes, tasks, off);
  const CaseResult ron = run_case(pes, tasks, on);

  const double speedup =
      ron.tasks_per_s > 0 ? ron.tasks_per_s / roff.tasks_per_s : 0.0;
  const bool identical =
      roff.hash == ron.hash && roff.bad == 0 && ron.bad == 0;

  cxu::Table table({"case", "tasks/s", "elapsed s", "grants", "mean chunk",
                    "steals", "stolen", "batches"});
  for (const auto* c : {&roff, &ron}) {
    const cx::trace::PoolStats& s = c->stats;
    table.add_row({c == &roff ? "per-task (off)" : "chunked+steal (on)",
                   cxu::Table::num(c->tasks_per_s, 0),
                   cxu::Table::num(c->elapsed, 4),
                   std::to_string(s.grants),
                   cxu::Table::num(s.mean_chunk(), 1),
                   std::to_string(s.steal_hits),
                   std::to_string(s.stolen_tasks),
                   std::to_string(s.result_batches)});
  }
  table.print();
  std::printf("\nspeedup: %.2fx   results identical: %s   steal hits: %llu\n",
              speedup, identical ? "yes" : "NO",
              static_cast<unsigned long long>(ron.stats.steal_hits));

  if (opt.has("json")) {
    std::string path = opt.get_string("json", "");
    if (path.empty()) path = "BENCH_pool.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"micro_pool\",\"pes\":%d,\"tasks\":%d,",
                 pes, tasks);
    json_case(f, "off", roff);
    std::fputc(',', f);
    json_case(f, "on", ron);
    std::fprintf(f, ",\"speedup\":%.3f,\"identical\":%s}\n", speedup,
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  bench::trace_report();
  if (!identical) {
    std::fprintf(stderr,
                 "micro_pool: RESULT MISMATCH (off %016llx on %016llx, "
                 "bad off=%llu on=%llu)\n",
                 static_cast<unsigned long long>(roff.hash),
                 static_cast<unsigned long long>(ron.hash),
                 static_cast<unsigned long long>(roff.bad),
                 static_cast<unsigned long long>(ron.bad));
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
