// When-engine drain throughput: the O(n²) ablation (paper §II-E).
//
// Fills one dynamic chare's when-buffer with n pending messages — half
// "noise" gated on a condition that never fires (`self.blocked == 1`),
// half a cascade gated on `self.next == seq` — then releases the
// cascade with one kick and times the drain. The seed engine re-tested
// every buffered message after every entry method (retry-all), so the
// drain costs O(n²) predicate evaluations; the condition-aware engine
// skips buckets whose dependencies did not change and drains in O(n).
//
// Both modes run in-process (set_when_dirty_tracking toggles the seed's
// retry-all behaviour back on) and both verify that delivery order is
// unchanged: the cascade asserts in-band that message k executes k-th.
//
//   ./bench/micro_when [--pending 10000] [--json BENCH_when.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/when.hpp"
#include "model/cpy.hpp"
#include "util/main_guard.hpp"

namespace {

void register_gate() {
  static const bool once = [] {
    cpy::DClass cls("mw.Gate");
    cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["blocked"] = cpy::Value(0);
      self["next"] = cpy::Value(0);
      self["count"] = cpy::Value(0);
      self["order_ok"] = cpy::Value(1);
      return cpy::Value::none();
    });
    cls.def("noise", {"x"}, [](cpy::DChare& self, cpy::Args&) {
      self["blocked"] = cpy::Value(0);  // never reached
      return cpy::Value::none();
    });
    cls.when("noise", "self.blocked == 1");
    cls.def("recv", {"seq", "x"}, [](cpy::DChare& self, cpy::Args& a) {
      const std::int64_t seq = a[0].as_int();
      if (seq != self["count"].as_int() + 1) self["order_ok"] = cpy::Value(0);
      self["count"] = cpy::Value(seq);
      self["next"] = cpy::Value(seq + 1);
      return cpy::Value::none();
    });
    cls.when("recv", "self.next == seq");
    cls.def("kick", {}, [](cpy::DChare& self, cpy::Args&) {
      self["next"] = cpy::Value(1);
      return cpy::Value::none();
    });
    cls.def("get", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["count"];
    });
    cls.def("ok", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["order_ok"];
    });
    return true;
  }();
  (void)once;
}

struct DrainResult {
  double seconds = 0.0;
  bool order_ok = false;
  std::uint64_t tests = 0;    ///< predicate evaluations during the drain
  std::uint64_t skipped = 0;  ///< re-tests avoided by the dirty filter
};

/// Buffer n messages (half never-eligible noise, half an ordered
/// cascade), release the cascade, time the drain to completion.
DrainResult run_drain(int pending, bool engine) {
  register_gate();
  cx::set_when_dirty_tracking(engine);
  DrainResult r;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 1;
  cx::Runtime rt(cfg);
  rt.run([&] {
    const int cascade = pending / 2;
    const int noise = pending - cascade;
    auto gate = cpy::create_chare("mw.Gate", 0);
    (void)gate.call("get").get();
    for (int i = 0; i < noise; ++i) {
      gate.send("noise", {cpy::Value(i)});
    }
    for (int i = 1; i <= cascade; ++i) {
      gate.send("recv", {cpy::Value(i), cpy::Value(0)});
    }
    // Round-trip: every message above is buffered before the timer starts.
    (void)gate.call("get").get();
    const cx::trace::WhenEngineStats before = cx::trace::when_stats();
    cxu::Stopwatch sw;
    gate.send("kick", {});
    while (gate.call("get").get().as_int() < cascade) {
    }
    r.seconds = sw.elapsed();
    const cx::trace::WhenEngineStats after = cx::trace::when_stats();
    r.order_ok = gate.call("ok").get().as_int() == 1;
    r.tests = after.tests - before.tests;
    r.skipped = after.skipped - before.skipped;
    cx::exit();
  });
  cx::set_when_dirty_tracking(true);
  return r;
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int pending = static_cast<int>(opt.get_int("pending", 10000));
  const std::string json = opt.get_string("json", "");

  std::printf(
      "micro_when: drain of a when-buffer with %d pending messages\n"
      "(retry-all = seed behaviour via set_when_dirty_tracking(false))\n\n",
      pending);

  struct Row {
    int n;
    DrainResult naive, engine;
  };
  std::vector<Row> rows;
  for (const int n : {pending / 10, pending}) {
    Row row;
    row.n = n;
    row.naive = run_drain(n, /*engine=*/false);
    row.engine = run_drain(n, /*engine=*/true);
    rows.push_back(row);
  }

  cxu::Table table({"pending", "retry-all s", "engine s", "speedup",
                    "engine tests", "order"});
  bool all_ok = true;
  for (const Row& r : rows) {
    const double speedup = r.naive.seconds / r.engine.seconds;
    const bool ok = r.naive.order_ok && r.engine.order_ok;
    all_ok = all_ok && ok;
    table.add_row({std::to_string(r.n), cxu::Table::num(r.naive.seconds, 4),
                   cxu::Table::num(r.engine.seconds, 4),
                   cxu::Table::num(speedup, 1),
                   std::to_string(r.engine.tests), ok ? "ok" : "VIOLATED"});
  }
  table.print();
  std::printf(
      "\nretry-all re-tests every buffered message per release (O(n^2));\n"
      "the engine skips buckets whose condition deps did not change.\n");

  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"micro_when\",\"cases\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "%s{\"pending\":%d,\"retry_all_s\":%.6f,\"engine_s\":%.6f,"
          "\"speedup\":%.2f,\"engine_tests\":%llu,\"engine_skipped\":%llu,"
          "\"order_ok\":%s}",
          i == 0 ? "" : ",", r.n, r.naive.seconds, r.engine.seconds,
          r.naive.seconds / r.engine.seconds,
          static_cast<unsigned long long>(r.engine.tests),
          static_cast<unsigned long long>(r.engine.skipped),
          r.naive.order_ok && r.engine.order_ok ? "true" : "false");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }
  return all_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
