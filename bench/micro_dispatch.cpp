// Dispatch-cost ablation (paper §IV-E): per-message cost of the typed
// core vs the dynamic model layer, same-PE and cross-PE. The cpy/cx gap
// measured here is the calibrated per-message overhead charged to the
// CharmPy series in the figure simulations — the same mechanism (dynamic
// dispatch + boxing + generic serialization) that separates CharmPy from
// Charm++ in the paper.
//
//   ./bench/micro_dispatch [--messages 30000]

#include <cstdio>

#include "bench_common.hpp"
#include "core/charm.hpp"
#include "util/main_guard.hpp"

namespace {

struct Sink : cx::Chare {
  long count = 0;
  void hit(std::int64_t a, double b) {
    count += a;
    (void)b;
  }
  void hit_vec(std::vector<double> v) { count += static_cast<long>(v.size()); }
  long get() { return count; }
};

void register_dyn() {
  static const bool once = [] {
    cpy::DClass cls("md.Sink");
    cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["count"] = cpy::Value(0);
      return cpy::Value::none();
    });
    cls.def("hit", {"a", "b"}, [](cpy::DChare& self, cpy::Args& a) {
      self["count"] = cpy::Value(self["count"].as_int() + a[0].as_int());
      return cpy::Value::none();
    });
    cls.def("get", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["count"];
    });
    return true;
  }();
  (void)once;
}

double time_typed(int pe, int messages) {
  double elapsed = 0.0;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 2;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto sink = cx::create_chare<Sink>(pe);
    (void)sink.call<&Sink::get>().get();
    cxu::Stopwatch sw;
    for (int i = 0; i < messages; ++i) sink.send<&Sink::hit>(1, 0.5);
    while (sink.call<&Sink::get>().get() < messages) {
    }
    elapsed = sw.elapsed();
    cx::exit();
  });
  return elapsed;
}

double time_dynamic(int pe, int messages) {
  register_dyn();
  double elapsed = 0.0;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 2;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto sink = cpy::create_chare("md.Sink", pe);
    (void)sink.call("get").get();
    cxu::Stopwatch sw;
    for (int i = 0; i < messages; ++i) {
      sink.send("hit", {cpy::Value(1), cpy::Value(0.5)});
    }
    while (sink.call("get").get().as_int() < messages) {
    }
    elapsed = sw.elapsed();
    cx::exit();
  });
  return elapsed;
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int messages = static_cast<int>(opt.get_int("messages", 30000));

  std::printf("micro_dispatch: per-message cost, %d messages/case\n\n",
              messages);
  cxu::Table table({"path", "typed us/msg", "dynamic us/msg", "dyn/typed"});
  for (int pe : {0, 1}) {
    const double t = time_typed(pe, messages) / messages * 1e6;
    const double d = time_dynamic(pe, messages) / messages * 1e6;
    table.add_row({pe == 0 ? "same-PE (by reference)" : "cross-PE (packed)",
                   cxu::Table::num(t, 3), cxu::Table::num(d, 3),
                   cxu::Table::num(d / t, 2)});
  }
  table.print();
  std::printf(
      "\nThe dynamic/typed gap is the C++ rendering of the CharmPy/Charm++\n"
      "per-message overhead; figure benches charge the measured value.\n");
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
