// wave1d — a compact domain-specific example on the dynamic model layer:
// a 1-D wave equation over a chare array, written entirely in the
// paper's style (dynamic classes, when-strings for iteration matching,
// array attributes as the NumPy fields, a reduction to finish).
//
//   ./examples/wave1d [--pes 4] [--chares 8] [--cells 64] [--steps 200]

#include <cstdio>

#include "model/cpy.hpp"
#include "util/main_guard.hpp"
#include "util/options.hpp"

using namespace cpy;

namespace {

void register_wave() {
  DClass cls("Wave");
  cls.def("__init__", {"ncells", "steps", "c2", "nchares"},
          [](DChare& self, Args& a) {
            self["n"] = a[0];
            self["steps"] = a[1];
            self["c2"] = a[2];
            self["nchares"] = a[3];
            self["iter"] = Value(0);
            self["got"] = Value(0);
            const auto n = static_cast<std::size_t>(a[0].as_int());
            std::vector<double> u(n + 2, 0.0), up(n + 2, 0.0);
            // A bump in the middle of chare 0 starts the wave.
            if (self["thisIndex"].item(Value(0)).as_int() == 0) {
              for (std::size_t i = n / 3; i < 2 * n / 3; ++i) {
                const double x =
                    static_cast<double>(i - n / 3) /
                    static_cast<double>(n / 3);
                u[i + 1] = x * (1.0 - x) * 4.0;
              }
              up = u;  // zero initial velocity
            }
            self["u"] = Value::array(std::move(u));
            self["uprev"] = Value::array(std::move(up));
            return Value::none();
          });

  cls.def("start", {"done"}, [](DChare& self, Args& a) {
    self["done"] = a[0];
    Args none;
    return self.dyn_call("exchange", std::move(none));
  });

  cls.def("exchange", {}, [](DChare& self, Args&) {
    const auto& u = self["u"].as_f64_array()->data;
    auto arr = collection_proxy_of(self);
    const std::int64_t me = self["thisIndex"].item(Value(0)).as_int();
    const std::int64_t nchares = self["nchares"].as_int();
    const std::int64_t it = self["iter"].as_int();
    // Periodic ring: send boundary cells to both neighbors.
    arr[cx::Index(static_cast<int>((me + nchares - 1) % nchares))].send(
        "ghost", {Value(it), Value(1), Value(u[u.size() - 2])});
    arr[cx::Index(static_cast<int>((me + 1) % nchares))].send(
        "ghost", {Value(it), Value(0), Value(u[1])});
    return Value::none();
  });

  cls.def("ghost", {"iter", "side", "value"}, [](DChare& self, Args& a) {
    auto& u = self["u"].as_f64_array()->data;
    if (a[1].as_int() == 0) {
      u[0] = a[2].as_real();
    } else {
      u[u.size() - 1] = a[2].as_real();
    }
    self["got"] = Value(self["got"].as_int() + 1);
    if (self["got"].as_int() < 2) return Value::none();
    self["got"] = Value(0);
    // Leapfrog update: u_next = 2u - u_prev + c2 (u[i-1] - 2u[i] + u[i+1])
    auto& up = self["uprev"].as_f64_array()->data;
    const double c2 = self["c2"].as_real();
    std::vector<double> next(u.size(), 0.0);
    for (std::size_t i = 1; i + 1 < u.size(); ++i) {
      next[i] = 2.0 * u[i] - up[i] + c2 * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
    }
    up = u;
    for (std::size_t i = 1; i + 1 < u.size(); ++i) u[i] = next[i];
    self["iter"] = Value(self["iter"].as_int() + 1);
    if (self["iter"].as_int() >= self["steps"].as_int()) {
      double energy = 0.0;
      for (std::size_t i = 1; i + 1 < u.size(); ++i) energy += u[i] * u[i];
      self.contribute_value(Value(energy), "sum",
                            DTarget::to_future(
                                future_from(self["done"]).slot()));
      return Value::none();
    }
    Args none;
    return self.dyn_call("exchange", std::move(none));
  });
  cls.when("ghost", "self.iter == iter");
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = static_cast<int>(opt.get_int("pes", 4));
  const int nchares = static_cast<int>(opt.get_int("chares", 8));
  const int ncells = static_cast<int>(opt.get_int("cells", 64));
  const int steps = static_cast<int>(opt.get_int("steps", 200));

  register_wave();
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto arr = create_array(
        "Wave", {nchares},
        {Value(ncells), Value(steps), Value(0.2), Value(nchares)});
    auto f = cx::make_future<Value>();
    arr.broadcast("start", {to_value(f)});
    const double energy = f.get().as_real();
    std::printf("wave1d: %d chares x %d cells, %d steps -> energy %.6f\n",
                nchares, ncells, steps, energy);
    cx::exit();
  });
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
