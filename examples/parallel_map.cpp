// The paper's Section III headline use case: a distributed parallel map
// with concurrent asynchronous jobs, on the master-worker pool.
//
// Mirrors the paper's main() almost line for line:
//
//   def main(args):
//     pool = Chare(MapManager, onPE=0)
//     f1 = charm.createFuture(); f2 = charm.createFuture()
//     pool.map_async(f, 2, [1,2,3,4,5], f1)
//     pool.map_async(f, 2, [1,3,5,7,9], f2)
//     print("Final results are", f1.get(), f2.get())
//
//   ./examples/parallel_map [--pes 4] [--tasks 16]

#include <cstdio>

#include "pool/pool.hpp"
#include "trace/trace.hpp"
#include "util/main_guard.hpp"
#include "util/options.hpp"

using cpy::List;
using cpy::Value;

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  cx::trace::configure_from_options(opt);  // --trace [--trace-out=...]
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = static_cast<int>(opt.get_int("pes", 4));
  const auto ntasks = opt.get_int("tasks", 16);

  // Task functions are registered by name (the stand-in for passing a
  // Python function object).
  cxpool::register_function("square", [](const Value& x) {
    return Value(x.as_int() * x.as_int());
  });
  cxpool::register_function("slow_cube", [](const Value& x) {
    // Wildly uneven task costs: the master's dynamic handout keeps
    // workers busy anyway (the paper's load-balancing point).
    cx::compute(1e-4 * static_cast<double>(x.as_int() % 7));
    return Value(x.as_int() * x.as_int() * x.as_int());
  });

  cx::Runtime rt(cfg);
  rt.run([ntasks] {
    cxpool::Pool pool;

    // Two independent jobs running concurrently on disjoint workers.
    List tasks1, tasks2;
    for (int i = 1; i <= 5; ++i) tasks1.emplace_back(i);
    for (int i = 1; i <= 9; i += 2) tasks2.emplace_back(i);
    auto f1 = pool.map_async("square", 2, tasks1);
    auto f2 = pool.map_async("square", 2, tasks2);
    std::printf("Final results are %s %s\n", f1.get().repr().c_str(),
                f2.get().repr().c_str());

    // A bigger job with uneven task costs, on all available workers.
    List big;
    for (int i = 0; i < ntasks; ++i) big.emplace_back(i);
    const Value cubes =
        pool.map("slow_cube", cx::num_pes() - 1 > 0 ? cx::num_pes() - 1 : 1,
                 big);
    std::printf("Cubes of 0..%lld: %s\n",
                static_cast<long long>(ntasks - 1), cubes.repr().c_str());
    cx::exit();
  });
  cx::trace::report_if_enabled();
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
