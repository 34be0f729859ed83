// LeanMD driver — molecular dynamics with the Lennard-Jones potential on
// the cells + computes decomposition (paper §V-C).
//
//   ./examples/leanmd --pes 4 --cells 3,3,3 --ppc 8 --steps 10
//   ./examples/leanmd --variant cpy --backend sim --pes 16

#include <cstdio>
#include <cstdlib>

#include "apps/leanmd/leanmd_common.hpp"
#include "apps/leanmd/leanmd_cpy.hpp"
#include "apps/leanmd/leanmd_cx.hpp"
#include "util/main_guard.hpp"
#include "util/options.hpp"

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  leanmd::PhysParams p;
  if (std::sscanf(opt.get_string("cells", "3,3,3").c_str(), "%d,%d,%d",
                  &p.cx, &p.cy, &p.cz) != 3 ||
      p.cx < 3 || p.cy < 3 || p.cz < 3) {
    std::fprintf(stderr, "--cells needs x,y,z each >= 3 (periodic box)\n");
    return 1;
  }
  p.ppc = static_cast<int>(opt.get_int("ppc", 8));
  p.steps = static_cast<int>(opt.get_int("steps", 10));
  p.migrate_every = static_cast<int>(opt.get_int("migrate", 5));
  p.dt = opt.get_double("dt", 1e-3);
  p.cutoff = opt.get_double("cutoff", 2.5);
  p.real = !opt.get_bool("modeled", false);

  cxm::MachineConfig machine;
  machine.num_pes = static_cast<int>(opt.get_int("pes", 4));
  machine.backend = opt.get_string("backend", "threaded") == "sim"
                        ? cxm::Backend::Sim
                        : cxm::Backend::Threaded;

  const std::string variant = opt.get_string("variant", "cx");
  leanmd::Result r;
  if (variant == "cx") {
    r = leanmd::run_cx(p, machine);
  } else if (variant == "cpy") {
    r = leanmd::run_cpy(p, machine);
  } else {
    std::fprintf(stderr, "unknown --variant '%s' (cx|cpy)\n",
                 variant.c_str());
    return 1;
  }

  const auto chares = p.num_cells() * 15;  // cells + 14 computes per cell
  std::printf("leanmd %s: %dx%dx%d cells, %d atoms/cell, %d steps\n",
              variant.c_str(), p.cx, p.cy, p.cz, p.ppc, p.steps);
  std::printf("  chares       %lld over %d PEs (%.1f per PE)\n",
              static_cast<long long>(chares), machine.num_pes,
              static_cast<double>(chares) / machine.num_pes);
  std::printf("  elapsed      %.6f s (%s), %.3f ms/step\n", r.elapsed,
              machine.backend == cxm::Backend::Sim ? "virtual" : "wall",
              r.time_per_step * 1e3);
  std::printf("  atoms        %lld (conserved)\n",
              static_cast<long long>(r.atoms));
  std::printf("  kinetic E    %.9g\n", r.kinetic_energy);
  std::printf("  momentum     (%.3g, %.3g, %.3g)\n", r.momentum[0],
              r.momentum[1], r.momentum[2]);
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
