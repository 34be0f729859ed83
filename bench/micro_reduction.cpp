// Reduction microbenchmark (paper §II-F): completion latency of
// asynchronous reductions vs collection size, plus multiple reductions
// in flight.
//
//   ./bench/micro_reduction [--rounds 200]

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/charm.hpp"
#include "util/main_guard.hpp"

namespace {

struct Red : cx::Chare {
  void go(cx::Callback target) {
    contribute(1.0, cx::reducer::sum<double>(), target);
  }
  void go_vec(cx::Callback target) {
    std::vector<double> v(64, 1.0);
    contribute(v, cx::reducer::sum<std::vector<double>>(), target);
  }
};

double time_reductions(int elements, int rounds, bool vec) {
  double elapsed = 0.0;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 4;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto arr = cx::create_array<Red>({elements});
    // warm up (also ensures creation completed)
    {
      auto f = cx::make_future<double>();
      arr.broadcast<&Red::go>(cx::cb(f));
      (void)f.get();
    }
    cxu::Stopwatch sw;
    for (int r = 0; r < rounds; ++r) {
      if (vec) {
        auto f = cx::make_future<std::vector<double>>();
        arr.broadcast<&Red::go_vec>(cx::cb(f));
        (void)f.get();
      } else {
        auto f = cx::make_future<double>();
        arr.broadcast<&Red::go>(cx::cb(f));
        (void)f.get();
      }
    }
    elapsed = sw.elapsed();
    cx::exit();
  });
  return elapsed / rounds;
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int rounds = static_cast<int>(opt.get_int("rounds", 100));

  std::printf("micro_reduction: broadcast + sum-reduction round trip,\n");
  std::printf("                 4 PEs, %d rounds/case\n\n", rounds);
  cxu::Table table(
      {"elements", "scalar sum us", "64-vector sum us"});
  for (int elements : {8, 32, 128, 512}) {
    const double s = time_reductions(elements, rounds, false) * 1e6;
    const double v = time_reductions(elements, rounds, true) * 1e6;
    table.add_row({std::to_string(elements), cxu::Table::num(s, 1),
                   cxu::Table::num(v, 1)});
  }
  table.print();
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
