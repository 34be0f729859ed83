// Quickstart — the paper's §II-B hello program and a tour of the model:
// chares, groups, arrays, futures, reductions, and the same program on
// both API levels (typed core and dynamic model layer).
//
//   ./examples/quickstart [--pes 4]

#include <cstdio>

#include "core/charm.hpp"
#include "model/cpy.hpp"
#include "util/main_guard.hpp"
#include "util/options.hpp"

namespace {

// --------------------------------------------------------------- typed API

struct Greeter : cx::Chare {
  void say_hi(std::string msg) {
    std::printf("[typed]   chare %s on PE %d says: %s\n",
                this_index().to_string().c_str(), cx::my_pe(), msg.c_str());
  }
  int add(int a, int b) { return a + b; }
};

struct Summer : cx::Chare {
  void work(cx::Future<int> target) {
    // Every element contributes its index; the runtime reduces the sum
    // asynchronously over a spanning tree (paper §II-F).
    contribute(this_index()[0], cx::reducer::sum<int>(), cx::cb(target));
  }
};

void typed_demo() {
  std::printf("--- typed core API (the Charm++ substrate) ---\n");
  // A single chare anywhere (paper: Chare(MyChare, onPE=-1)).
  auto one = cx::create_chare<Greeter>(-1);
  one.send<&Greeter::say_hi>(std::string("Hello"));

  // Remote call with a return value (paper: ret=True).
  auto sum = one.call<&Greeter::add>(20, 22);
  std::printf("[typed]   20 + 22 = %d (via future)\n", sum.get());

  // A group: one member per PE.
  auto grp = cx::create_group<Greeter>();
  grp.broadcast_done<&Greeter::say_hi>(std::string("hello from the group"))
      .get();

  // An array of 10 workers and an asynchronous sum reduction.
  auto workers = cx::create_array<Summer>({10});
  auto f = cx::make_future<int>();
  workers.broadcast<&Summer::work>(f);
  std::printf("[typed]   sum of indexes 0..9 = %d\n", f.get());
}

// ------------------------------------------------------------- dynamic API

void register_dynamic_classes() {
  cpy::DClass cls("Hello");
  cls.def("SayHi", {"msg"}, [](cpy::DChare& self, cpy::Args& a) {
    std::printf("[dynamic] %s on PE %d says: %s\n",
                self["thisIndex"].repr().c_str(), cx::my_pe(),
                a[0].as_str().c_str());
    return cpy::Value::none();
  });
  cls.def("getValue", {}, [](cpy::DChare& self, cpy::Args&) {
    return cpy::Value(self["thisIndex"].item(cpy::Value(0)).as_int() * 2);
  });
}

void dynamic_demo() {
  std::printf("--- dynamic model layer (the paper's contribution) ---\n");
  // The paper's hello program: methods invoked by name, no interface
  // files, no registration of entry methods.
  auto proxy = cpy::create_chare("Hello", -1);
  proxy.send("SayHi", {cpy::Value("Hello (by name!)")});

  auto arr = cpy::create_array("Hello", {4});
  arr.broadcast_done("SayHi", {cpy::Value("hello, array")}).get();

  auto v = arr[cx::Index(3)].call("getValue").get();
  std::printf("[dynamic] element 3 returned %s\n", v.repr().c_str());
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = static_cast<int>(opt.get_int("pes", 4));
  cfg.machine.backend = opt.get_string("backend", "threaded") == "sim"
                            ? cxm::Backend::Sim
                            : cxm::Backend::Threaded;
  register_dynamic_classes();

  cx::Runtime rt(cfg);
  rt.run([] {
    std::printf("charmx quickstart on %d PEs\n", cx::num_pes());
    typed_demo();
    dynamic_demo();
    std::printf("done.\n");
    cx::exit();
  });
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
