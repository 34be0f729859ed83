// LB strategy ablation (DESIGN.md design-choice study): the imbalanced
// stencil of Fig. 3 under every registered strategy.
//
//   ./bench/ablation_lb [--iters 120] [--pes 32]

#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil/stencil_cx.hpp"
#include "bench_common.hpp"
#include "util/main_guard.hpp"

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int iters = static_cast<int>(opt.get_int("iters", 120));
  const int pes = static_cast<int>(opt.get_int("pes", 32));

  stencil::Params p;
  bench::near_cubic(pes * 4, p.geo.bx, p.geo.by, p.geo.bz);
  p.geo.nx = p.geo.ny = p.geo.nz = 8;
  p.iterations = iters;
  p.real_kernel = false;
  p.cell_cost = 2.0e-9;
  p.imbalance = true;
  p.num_load_groups = pes;

  std::printf("ablation_lb: imbalanced stencil3d, %d PEs, 4 chares/PE,\n",
              pes);
  std::printf("             LB every 30 of %d iterations\n\n", iters);

  stencil::Params p_nolb = p;
  const auto baseline = stencil::run_cx(p_nolb, bench::cori(pes));

  cxu::Table table({"strategy", "time/iter ms", "speedup vs none",
                    "migrations", "imbalance after"});
  table.add_row({"(no lb)", cxu::Table::num(baseline.time_per_iter * 1e3, 3),
                 "1.00", "0", "-"});
  for (const std::string strategy :
       {"greedy", "refine", "rotate", "random"}) {
    stencil::Params pl = p;
    pl.lb_period = 30;
    const auto r = stencil::run_cx(pl, bench::cori(pes), strategy);
    table.add_row(
        {strategy, cxu::Table::num(r.time_per_iter * 1e3, 3),
         cxu::Table::num(baseline.time_per_iter / r.time_per_iter, 2),
         std::to_string(r.lb_migrations),
         cxu::Table::num(r.imbalance_after, 2)});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nexpected: greedy best. random also helps here: scattering mixes\n"
      "load groups per PE, averaging the rotating alpha phases. rotate\n"
      "preserves the grouping and only pays migration cost. refine moves\n"
      "too few chares to mix phases.\n");
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
