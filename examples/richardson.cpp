// richardson — a distributed Jacobi-preconditioned Richardson solver
// built on chare-array sections (paper §II-F/§II-G generalized to index
// subsets):
//
//  * the *solve section* covers the interior elements of a 1-D Laplace
//    system (the two ends hold Dirichlet boundary values and never
//    update) — the residual norm each sweep is a section-scoped
//    reduction over exactly those members;
//  * halo exchange is per-member *neighbor-section multicasts*: each
//    element owns a tiny section over its left/right neighbors and
//    pushes its value down that spanning tree instead of addressing
//    point-to-point sends;
//  * --migrate-at forces an interior element off its home PE mid-solve:
//    contributions re-route through the home-PE delegate and the
//    multicast split repairs lazily, so convergence continues across
//    the move.
//
// Solves u'' = 0 on [0,1] with u(0)=0, u(1)=1 (solution: a linear
// ramp). Exits nonzero if the residual fails to reach --tol.
//
//   ./examples/richardson [--pes 4] [--chares 16] [--iters 800]
//                         [--tol 1e-4] [--migrate-at 50]
//                         [--section-tree-arity 4]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "core/charm.hpp"
#include "core/spantree.hpp"
#include "trace/trace.hpp"
#include "util/main_guard.hpp"
#include "util/options.hpp"

namespace {

struct RichCell : cx::Chare {
  double x = 0.0;
  bool interior = false;
  cx::SectionProxy<RichCell> solve;  // residual reduction target
  cx::SectionProxy<RichCell> nbrs;   // halo multicast: {i-1, i+1}
  // Halo values received for a sweep, keyed by sweep tag (a neighbor
  // can already be one sweep ahead of us).
  std::map<int, std::vector<std::pair<int, double>>> halo;

  void pup(pup::Er& p) override {
    p | x;
    p | interior;
    solve.pup(p);
    nbrs.pup(p);
    p | halo;
  }

  /// Build this element's neighbor section and pin the boundary values.
  void setup(cx::SectionProxy<RichCell> solve_sect, int n) {
    solve = solve_sect;
    const int i = this_index()[0];
    interior = i > 0 && i < n - 1;
    if (i == n - 1) x = 1.0;  // u(1) = 1; u(0) stays 0
    std::vector<cx::Index> members;
    if (i > 0) members.push_back(cx::Index(i - 1));
    if (i < n - 1) members.push_back(cx::Index(i + 1));
    cx::CollectionProxy<RichCell> arr(collection());
    nbrs = arr.section(members);
  }

  void recv_halo(int sweep, int from, double v) {
    halo[sweep].push_back({from, v});
  }

  /// One Richardson sweep (threaded): push x to the neighbor sections,
  /// wait for both halo values, fold the local residual into the
  /// section reduction, then apply x += D^{-1} r (Jacobi: D = 2).
  void sweep(int k, cx::Future<double> res) {
    nbrs.broadcast<&RichCell::recv_halo>(k, this_index()[0], x);
    if (!interior) {
      halo.erase(halo.begin(), halo.upper_bound(k));  // trim stale tags
      return;
    }
    wait([this, k] { return halo[k].size() >= 2; });
    const int i = this_index()[0];
    double left = 0.0, right = 0.0;
    for (const auto& [from, v] : halo[k]) {
      (from < i ? left : right) = v;
    }
    halo.erase(halo.begin(), halo.upper_bound(k));
    const double r = left - 2.0 * x + right;
    contribute(solve, r * r, cx::reducer::sum<double>(), cx::cb(res));
    x += 0.5 * r;
  }

  int where() { return cx::my_pe(); }
  void go_to(int pe) { migrate(pe); }
  double value() { return x; }
};

struct Registrar {
  Registrar() { cx::set_threaded<&RichCell::sweep>(); }
};
const Registrar registrar;

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = static_cast<int>(opt.get_int("pes", 4));
  const int n = static_cast<int>(opt.get_int("chares", 16));
  const int iters = static_cast<int>(opt.get_int("iters", 800));
  const double tol = opt.get_double("tol", 1e-4);
  const int migrate_at = static_cast<int>(opt.get_int("migrate-at", 50));
  cx::tree::set_section_arity(
      static_cast<int>(opt.get_int("section-tree-arity", 4)));

  bool converged = false;
  double first_res = 0.0, last_res = 0.0;
  int sweeps = 0;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto arr = cx::create_array<RichCell>({n});
    std::vector<cx::Index> members;
    for (int i = 1; i < n - 1; ++i) members.push_back(cx::Index(i));
    auto solve = arr.section(members);
    arr.broadcast_done<&RichCell::setup>(solve, n).get();

    for (int k = 0; k < iters; ++k) {
      auto res = cx::make_future<double>();
      arr.broadcast<&RichCell::sweep>(k, res);
      const double rnorm = std::sqrt(res.get());
      if (k == 0) first_res = rnorm;
      last_res = rnorm;
      sweeps = k + 1;
      if (rnorm < tol) {
        converged = true;
        break;
      }
      if (k + 1 == migrate_at) {
        // Force an interior member off its home PE mid-solve; the
        // section machinery must keep both the halo multicasts and the
        // residual reduction flowing to/from its new location.
        const int mid = n / 2;
        const int was = arr[mid].call<&RichCell::where>().get();
        arr[mid].send<&RichCell::go_to>((was + 1) % cx::num_pes());
        while (arr[mid].call<&RichCell::where>().get() == was) {
        }
        std::printf("richardson: migrated element %d from PE %d to %d "
                    "after sweep %d\n",
                    mid, was, (was + 1) % cx::num_pes(), k + 1);
      }
    }

    // The converged iterate must approximate the analytic ramp.
    double max_err = 0.0;
    for (int i = 0; i < n; ++i) {
      const double u = arr[i].call<&RichCell::value>().get();
      const double exact = static_cast<double>(i) / (n - 1);
      max_err = std::max(max_err, std::fabs(u - exact));
    }
    const auto ss = cx::trace::section_stats();
    std::printf("richardson: %d chares (%d interior), %d sweeps\n", n,
                n - 2, sweeps);
    std::printf("  residual |r|: %.3e -> %.3e (tol %.1e)  max|u-u*| %.3e\n",
                first_res, last_res, tol, max_err);
    std::printf("  sections: %llu built, %llu multicasts, %llu "
                "contributions, %llu tree repairs\n",
                static_cast<unsigned long long>(ss.sections_built),
                static_cast<unsigned long long>(ss.mcasts),
                static_cast<unsigned long long>(ss.contributions),
                static_cast<unsigned long long>(ss.tree_repairs));
    cx::exit();
  });

  if (!converged || last_res >= first_res) {
    std::fprintf(stderr, "richardson: FAILED to converge (%.3e after %d "
                 "sweeps)\n", last_res, sweeps);
    return 1;
  }
  std::printf("richardson: converged\n");
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
