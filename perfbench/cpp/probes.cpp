// The traced invocation: an untraced and a traced pass of the workload,
// then isolated probes of every layer, each timed inside a span around
// calls into that layer's public functions. Nothing inside src/ is
// instrumented; the runtime's own counters (cx::trace wire/when/pool
// stats, aggregate() and counters(pe)) are only read.
//
// Probe values are per operation: the median over a few batches of a
// batch's span duration divided by the work units inside it.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "apps/stencil/stencil_cpy.hpp"
#include "apps/stencil/stencil_cx.hpp"
#include "core/charm.hpp"
#include "fiber/fiber.hpp"
#include "model/cpy.hpp"
#include "net/frame.hpp"
#include "workloads.hpp"

namespace pb {

std::string size_label(std::size_t b) {
  if (b >= (1u << 20) && b % (1u << 20) == 0) {
    return std::to_string(b >> 20) + "MiB";
  }
  if (b >= 1024 && b % 1024 == 0) return std::to_string(b >> 10) + "KiB";
  return std::to_string(b) + "B";
}

namespace {

using Values = std::map<std::string, double>;

/// Keeps probe results observable so loops are not optimised away.
std::atomic<std::uint64_t> g_sink{0};
void sink(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

/// Median over `batches` spans named `name` of duration / `units`.
template <typename F>
double per_unit(const std::string& name, double units, int batches, F&& f) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    ScopedSpan s(name, static_cast<std::uint64_t>(b));
    s.set_units(units);
    const double t0 = now_s();
    f();
    v.push_back((now_s() - t0) / units);
  }
  return median(v);
}

int reps(bool smoke, int n) { return smoke ? std::max(2, n / 50) : n; }

// ---- apps ------------------------------------------------------------------

void probe_apps(const Opts& o, const StencilCfg& c, Values& out) {
  ScopedSpan layer("probe.apps");
  const auto& g = c.geo;
  namespace kern = stencil::kern;
  std::vector<double> cur, next;
  kern::init_field(g, 0, 0, 0, cur);
  // Ghost faces of 1.0: thousands of sweeps between zero faces would
  // decay the field into subnormals and time those instead.
  for (int f = 0; f < 6; ++f) {
    const auto n =
        static_cast<std::size_t>(kern::face_cells(g.nx, g.ny, g.nz, f));
    kern::inject_face(g.nx, g.ny, g.nz, cur, f, std::vector<double>(n, 1.0));
  }
  next = cur;
  const double cells = static_cast<double>(g.cells_per_block());
  // ~0.1 s of kernel per batch on a 64^3 block, scaled to the shape.
  const double scale = o.smoke ? 50.0 : 1.0;
  const int kr = std::max(2, static_cast<int>(2.5e7 / cells / scale));
  out["apps.kernel_ns_per_cell"] =
      per_unit("apps.compute", cells * kr, 3, [&] {
        for (int r = 0; r < kr; ++r) {
          kern::compute(g.nx, g.ny, g.nz, cur, next);
          cur.swap(next);
        }
      }) * 1e9;
  sink(static_cast<std::uint64_t>(kern::checksum(g.nx, g.ny, g.nz, cur)));

  double face_b = 0.0;
  for (int f = 0; f < 6; ++f) {
    face_b += static_cast<double>(kern::face_cells(g.nx, g.ny, g.nz, f)) * 8;
  }
  const int fr = std::max(2, static_cast<int>(2e7 / face_b / scale));
  out["apps.face_copy_ns_per_byte"] =
      per_unit("apps.extract_inject_face", face_b * fr, 3, [&] {
        for (int r = 0; r < fr; ++r) {
          for (int f = 0; f < 6; ++f) {
            const auto face = kern::extract_face(g.nx, g.ny, g.nz, cur, f);
            kern::inject_face(g.nx, g.ny, g.nz, cur, f ^ 1, face);
          }
        }
      }) * 1e9;

  const double step_cells = cells_per_step(g);
  out["apps.kernel_flops_per_step"] = 7.0 * step_cells;  // 6 adds, 1 divide
  // Compulsory traffic: read cur, write-allocate and write next.
  out["apps.kernel_bytes_per_step_computed"] = 24.0 * step_cells;

  // serial_checksum(iters) - serial_checksum(0) leaves the iterations.
  double t_init = 0.0, t_full = 0.0;
  {
    ScopedSpan s("apps.serial_checksum", 0);
    const double t0 = now_s();
    sink(static_cast<std::uint64_t>(stencil::serial_checksum(g, 0)));
    t_init = now_s() - t0;
  }
  {
    ScopedSpan s("apps.serial_checksum", 1);
    s.set_units(c.iters);
    const double t0 = now_s();
    sink(static_cast<std::uint64_t>(stencil::serial_checksum(g, c.iters)));
    t_full = now_s() - t0;
  }
  out["apps.serial_step_ms"] = (t_full - t_init) / c.iters * 1e3;
}

// ---- pup -------------------------------------------------------------------

void probe_pup(bool smoke, const std::vector<std::size_t>& sizes, Values& out) {
  ScopedSpan layer("probe.pup");
  for (const std::size_t b : sizes) {
    const std::string l = size_label(b);
    std::vector<double> v(std::max<std::size_t>(1, b / 8), 1.5);
    const double bytes = static_cast<double>(v.size() * 8);
    const int n =
        reps(smoke, static_cast<int>(std::clamp(2e7 / bytes, 20.0, 2e5)));
    out["pup.pack_ns_per_byte-" + l] =
        per_unit("pup.to_bytes-" + l, bytes * n, 3, [&] {
          for (int i = 0; i < n; ++i) sink(pup::to_bytes(v).size());
        }) * 1e9;
    const std::vector<std::byte> packed = pup::to_bytes(v);
    out["pup.unpack_ns_per_byte-" + l] =
        per_unit("pup.from_bytes-" + l, bytes * n, 3, [&] {
          for (int i = 0; i < n; ++i) {
            sink(pup::from_bytes<std::vector<double>>(packed).size());
          }
        }) * 1e9;
  }
}

// ---- model -----------------------------------------------------------------

void register_model_classes() {
  static const bool once = [] {
    cpy::DClass sink_cls("pb.Sink");
    sink_cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["n"] = cpy::Value(0);
      return cpy::Value::none();
    });
    sink_cls.def("noop", {}, [](cpy::DChare& self, cpy::Args&) {
      self["n"] = cpy::Value(self["n"].as_int() + 1);
      return cpy::Value::none();
    });
    sink_cls.def("count", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["n"];
    });
    return true;
  }();
  (void)once;
}

void probe_model(bool smoke, Values& out) {
  ScopedSpan layer("probe.model");
  {
    cpy::Value face = cpy::Value::array(std::vector<double>(64, 1.5));
    const int n = reps(smoke, 100000);
    out["model.value_pack_ns"] =
        per_unit("model.value_pup-512B", n, 3, [&] {
          for (int i = 0; i < n; ++i) sink(pup::to_bytes(face).size());
        }) * 1e9;
  }
  {
    const cpy::Expr e = cpy::Expr::compile("self.iter == iter");
    const cpy::Value attrs = cpy::Value::dict({{"iter", cpy::Value(7)}});
    const std::vector<std::string> params{"iter"};
    const cpy::Args args{cpy::Value(7)};
    const cpy::EvalCtx ctx{&attrs, &params, &args, nullptr};
    const int n = reps(smoke, 200000);
    out["model.when_eval_ns"] =
        per_unit("model.expr_test", n, 3, [&] {
          for (int i = 0; i < n; ++i) sink(e.test(ctx) ? 1 : 0);
        }) * 1e9;
  }
  register_model_classes();
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 1;
  cx::Runtime rt(cfg);
  rt.run([&, parent = layer.id()] {
    const AdoptSpan adopt(parent);
    auto s = cpy::create_chare("pb.Sink", 0);
    (void)s.call("count").get();
    const int n = reps(smoke, 20000);
    out["model.dispatch_ns"] =
        per_unit("model.send_noop", n, 3, [&] {
          for (int i = 0; i < n; ++i) s.send("noop");
          (void)s.call("count").get();
        }) * 1e9;
    cx::exit();
  });
}

/// cpy minus cx step time on the stencil-fine geometry, per message.
void probe_dyn_overhead(const Opts& o, Values& out) {
  ScopedSpan layer("probe.dyn_overhead");
  const StencilCfg c = stencil_cfg("stencil-fine", o.smoke);
  stencil::Params p;
  p.geo = c.geo;
  p.iterations = o.smoke ? 2 : 100;
  cxm::MachineConfig m;
  m.num_pes = c.pes;
  std::vector<double> cx_t, cpy_t;
  for (int r = 0; r < (o.smoke ? 1 : 5); ++r) {
    {
      ScopedSpan s("stencil.run_cx", static_cast<std::uint64_t>(r));
      s.set_units(p.iterations);
      cx_t.push_back(stencil::run_cx(p, m).time_per_iter);
    }
    {
      ScopedSpan s("stencil.run_cpy", static_cast<std::uint64_t>(r));
      s.set_units(p.iterations);
      cpy_t.push_back(stencil::run_cpy(p, m).time_per_iter);
    }
  }
  out["model.dyn_overhead_us_per_msg"] =
      (median(cpy_t) - median(cx_t)) /
      static_cast<double>(faces_per_step(c.geo)) * 1e6;
}

// ---- core ------------------------------------------------------------------

struct Echo : cx::Chare {
  int noop() { return 0; }
};

struct Joiner : cx::Chare {
  void join(cx::Future<void> f) { contribute(cx::cb(f)); }
};

struct Empty : cx::Chare {
  void touch() {}
};

void probe_core(bool smoke, const StencilCfg& c, Values& out) {
  ScopedSpan layer("probe.core");
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 4;
  cx::Runtime rt(cfg);
  rt.run([&, parent = layer.id()] {
    const AdoptSpan adopt(parent);
    const int n = reps(smoke, 3000);
    for (const int pe : {0, 1}) {
      auto e = cx::create_chare<Echo>(pe);
      (void)e.call<&Echo::noop>().get();
      out[pe == 0 ? "core.future_roundtrip_us-same_pe"
                  : "core.future_roundtrip_us-cross_pe"] =
          per_unit(pe == 0 ? "core.call_get-same_pe" : "core.call_get-cross_pe",
                   n, 3, [&] {
                     for (int i = 0; i < n; ++i) {
                       sink(static_cast<std::uint64_t>(
                           e.call<&Echo::noop>().get()));
                     }
                   }) * 1e6;
    }
    auto g = cx::create_group<Joiner>();
    const int nr = reps(smoke, 1000);
    out["core.group_reduce_us"] =
        per_unit("core.group_broadcast_contribute", nr, 3, [&] {
          for (int i = 0; i < nr; ++i) {
            auto f = cx::make_future<void>();
            g.broadcast<&Joiner::join>(f);
            f.get();
          }
        }) * 1e6;
    const cx::Index dims{c.geo.bx, c.geo.by, c.geo.bz};
    out["core.create_array_ms"] =
        per_unit("core.create_array", 1, smoke ? 3 : 15, [&] {
          auto a = cx::create_array<Empty>(dims);
          a.broadcast_done<&Empty::touch>().get();
        }) * 1e3;
    cx::exit();
  });
}

// ---- fiber -----------------------------------------------------------------

void probe_fiber(bool smoke, Values& out) {
  ScopedSpan layer("probe.fiber");
  const int n = reps(smoke, 200000);
  out["fiber.switch_ns"] =
      per_unit("fiber.resume_yield", n, 3, [&] {
        cxf::Fiber f([n] {
          for (int i = 0; i < n; ++i) cxf::Fiber::yield();
        });
        while (!f.done()) f.resume();
      }) * 1e9;
}

// ---- machine and net -------------------------------------------------------

void probe_machine(bool smoke, Values& out) {
  ScopedSpan layer("probe.machine");
  {
    cxm::MachineConfig cfg;
    cfg.num_pes = 2;
    const auto m = cxm::make_machine(cfg);
    Ladder l;
    {
      ScopedSpan s("machine.pingpong_ladder");
      l = machine_ladder(*m, smoke);
    }
    for (std::size_t i = 0; i < kLadderBytes.size(); ++i) {
      out["machine.oneway_us-" + size_label(kLadderBytes[i])] = l.oneway_us[i];
    }
    out["machine.stream_MBps-1MiB"] = l.stream_MBps;
  }
  // Bring-up: construct a 4-PE machine, run until every PE handled one
  // message, stop, join.
  out["machine.startup_ms"] =
      per_unit("machine.startup", 1, smoke ? 3 : 9, [&] {
        cxm::MachineConfig cfg;
        cfg.num_pes = 4;
        const auto m = cxm::make_machine(cfg);
        std::atomic<int> seen{0};
        const std::uint32_t h = m->register_handler([&](cxm::MessagePtr) {
          if (seen.fetch_add(1) + 1 == cfg.num_pes) m->stop();
        });
        for (int pe = 0; pe < cfg.num_pes; ++pe) {
          auto msg = std::make_unique<cxm::Message>();
          msg->handler = h;
          msg->dst_pe = pe;
          m->send(std::move(msg));
        }
        m->run();
      }) * 1e3;
}

void probe_net(const Opts& o, Values& out) {
  ScopedSpan layer("probe.net");
  {
    ScopedSpan s("cxrun.netladder");
    const auto lines = launch_ranks(o, {"netladder", o.smoke ? "1" : "0"}, 20);
    const RankLine* r0 = nullptr;
    for (const auto& l : lines) {
      if (l.count("rank") && l.at("rank") == 0) r0 = &l;
    }
    if (r0 == nullptr) throw std::runtime_error("netladder: no rank 0 line");
    for (const std::size_t b : kLadderBytes) {
      out["net.oneway_us-" + size_label(b)] =
          r0->at("oneway_us_" + std::to_string(b));
    }
    out["net.stream_MBps-1MiB"] = r0->at("stream_MBps");
    out["net.wireup_ms"] = r0->at("wireup_ms");
  }
  cxm::Message m;
  m.handler = 3;
  m.dst_pe = 1;
  m.data.resize_discard(32768);
  std::memset(m.data.data(), 7, m.data.size());
  const int n = reps(o.smoke, 2000);
  const double bytes = 32768.0 * n;
  out["net.frame_encode_ns_per_byte"] =
      per_unit("net.encode_frame-32KiB", bytes, 3, [&] {
        for (int i = 0; i < n; ++i) sink(cxnet::encode_frame(m).size());
      }) * 1e9;
  const std::vector<std::byte> frame = cxnet::encode_frame(m);
  cxnet::FrameReader reader;
  out["net.frame_decode_ns_per_byte"] =
      per_unit("net.frame_reader-32KiB", bytes, 3, [&] {
        for (int i = 0; i < n; ++i) {
          reader.feed(frame.data(), frame.size());
          cxnet::Frame f;
          if (reader.next(f) != cxnet::FrameReader::Status::Frame) {
            throw std::runtime_error("frame decode failed");
          }
          sink(f.payload_len);
        }
      }) * 1e9;
}

// ---- whole-stack ping-pong -------------------------------------------------

struct PingChare : cx::Chare {
  int left = 0;
  cx::Future<int> done;
  int pe() { return cx::my_pe(); }
  void start(int n, cx::Future<int> f, std::vector<double> v) {
    left = n;
    done = f;
    peer().send<&PingChare::ping>(std::move(v));
  }
  void ping(std::vector<double> v) {
    if (this_index()[0] == 0 && --left == 0) {
      done.send(0);
      return;
    }
    peer().send<&PingChare::ping>(std::move(v));
  }
  [[nodiscard]] cx::ElementProxy<PingChare> peer() const {
    return cx::collection_of(*this)[cx::Index(1 - this_index()[0])];
  }
};

cx::Future<int> g_cpy_done;

void register_ping_class() {
  static const bool once = [] {
    auto peer = [](cpy::DChare& self) {
      const auto me = self["thisIndex"].item(cpy::Value(0)).as_int();
      return cpy::collection_proxy_of(self)[cx::Index(
          static_cast<int>(1 - me))];
    };
    cpy::DClass cls("pb.Ping");
    cls.def("start", {"n", "data"}, [peer](cpy::DChare& self, cpy::Args& a) {
      self["left"] = a[0];
      peer(self).send("ping", {a[1]});
      return cpy::Value::none();
    });
    cls.def("ping", {"data"}, [peer](cpy::DChare& self, cpy::Args& a) {
      if (self["thisIndex"].item(cpy::Value(0)).as_int() == 0) {
        const std::int64_t left = self["left"].as_int() - 1;
        self["left"] = cpy::Value(left);
        if (left == 0) {
          g_cpy_done.send(0);
          return cpy::Value::none();
        }
      }
      peer(self).send("ping", {a[0]});
      return cpy::Value::none();
    });
    return true;
  }();
  (void)once;
}

void probe_stack(bool smoke, Values& out) {
  ScopedSpan layer("probe.stack");
  register_ping_class();
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 2;
  cx::Runtime rt(cfg);
  rt.run([&, parent = layer.id()] {
    const AdoptSpan adopt(parent);
    auto typed = cx::create_array<PingChare>(cx::Index(2));
    if (typed[cx::Index(0)].call<&PingChare::pe>().get() != 0 ||
        typed[cx::Index(1)].call<&PingChare::pe>().get() != 1) {
      throw std::runtime_error("ping-pong elements are not on PEs 0 and 1");
    }
    auto dyn = cpy::create_array("pb.Ping", cx::Index(2));
    const int base[] = {3000, 3000, 600, 100};
    for (std::size_t i = 0; i < kLadderBytes.size(); ++i) {
      const std::string l = size_label(kLadderBytes[i]);
      const std::vector<double> payload(kLadderBytes[i] / 8, 1.5);
      const int n = reps(smoke, base[i]);
      out["stack.oneway_us-" + l] =
          per_unit("stack.typed_pingpong-" + l, 2.0 * n, 3, [&] {
            auto f = cx::make_future<int>();
            typed[cx::Index(0)].send<&PingChare::start>(n, f, payload);
            (void)f.get();
          }) * 1e6;
      out["stack.cpy_oneway_us-" + l] =
          per_unit("stack.cpy_pingpong-" + l, 2.0 * n, 3, [&] {
            g_cpy_done = cx::make_future<int>();
            dyn[cx::Index(0)].send(
                "start", {cpy::Value(n), cpy::Value::array(payload)});
            (void)g_cpy_done.get();
          }) * 1e6;
    }
    cx::exit();
  });
}

double at(const Values& v, const std::string& k) {
  const auto it = v.find(k);
  if (it == v.end()) throw std::logic_error("probe value missing: " + k);
  return it->second;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

// ---- raw machine ladder ----------------------------------------------------

Ladder machine_ladder(cxm::Machine& m, bool smoke) {
  struct State {
    cxm::Machine* m = nullptr;
    std::uint32_t h_kick = 0, h_pp = 0, h_stream = 0, h_ack = 0;
    // PE 0 side
    std::size_t idx = 0;
    int count = 0, warm = 0, reps = 0;
    double t0 = 0.0;
    int window = 16, windows = 0, windows_done = 0;
    Ladder out;
    // PE 1 side
    int stream_recv = 0;
  } st;
  st.m = &m;
  auto send = [&st](std::uint32_t h, int dst, std::size_t bytes) {
    auto msg = std::make_unique<cxm::Message>();
    msg->handler = h;
    msg->dst_pe = dst;
    msg->data.resize_discard(bytes);
    st.m->send(std::move(msg));
  };
  const int base_reps[] = {2000, 2000, 500, 100};
  auto start_size = [&st, &send, &base_reps, smoke] {
    st.count = 0;
    st.reps = reps(smoke, base_reps[st.idx]);
    st.warm = std::max(1, st.reps / 10);
    send(st.h_pp, 1, kLadderBytes[st.idx]);
  };
  auto send_window = [&st, &send] {
    for (int i = 0; i < st.window; ++i) send(st.h_stream, 1, 1u << 20);
  };
  st.h_kick = m.register_handler([&](cxm::MessagePtr) { start_size(); });
  st.h_pp = m.register_handler([&](cxm::MessagePtr msg) {
    const int me = st.m->current_pe();
    if (me == 1) {
      msg->dst_pe = 0;
      st.m->send(std::move(msg));
      return;
    }
    ++st.count;
    if (st.count == st.warm) st.t0 = now_s();
    if (st.count < st.warm + st.reps) {
      msg->dst_pe = 1;
      st.m->send(std::move(msg));
      return;
    }
    st.out.oneway_us.push_back((now_s() - st.t0) / (2.0 * st.reps) * 1e6);
    if (++st.idx < kLadderBytes.size()) {
      start_size();
    } else {
      st.windows = smoke ? 1 : 8;
      send_window();
    }
  });
  st.h_stream = m.register_handler([&](cxm::MessagePtr) {
    if (++st.stream_recv % st.window == 0) send(st.h_ack, 0, 8);
  });
  st.h_ack = m.register_handler([&](cxm::MessagePtr) {
    ++st.windows_done;
    if (st.windows_done == 1) st.t0 = now_s();  // first window warms up
    if (st.windows_done == 1 + st.windows) {
      const double bytes = static_cast<double>(st.windows) * st.window *
                           static_cast<double>(1u << 20);
      st.out.stream_MBps = bytes / (now_s() - st.t0) / 1e6;
      st.m->stop();
      return;
    }
    send_window();
  });
  if (m.hosts_pe(0)) send(st.h_kick, 0, 8);
  m.run();
  return st.out;
}

// ---- the traced invocation -------------------------------------------------

void measure_layers(const Opts& o, Report& rep) {
  const bool stencil_wl = is_stencil(o.workload);
  const StencilCfg shape = stencil_cfg(o.workload, o.smoke);
  const Pass plain = run_pass(o, rep, 0.25 * o.seconds, false, false);
  const Pass traced = run_pass(o, rep, 0.25 * o.seconds, true, false);
  if (plain.step_s.empty() || traced.step_s.empty()) return;  // all failed

  Values v;
  {
    ScopedSpan root("probes");
    probe_apps(o, shape, v);
    std::vector<std::size_t> pup_sizes = {8, 512, 2048, 32768, 1u << 20};
    const auto fb = static_cast<std::size_t>(face_bytes(shape.geo));
    if (std::find(pup_sizes.begin(), pup_sizes.end(), fb) == pup_sizes.end()) {
      pup_sizes.push_back(fb);
    }
    probe_pup(o.smoke, pup_sizes, v);
    probe_model(o.smoke, v);
    probe_dyn_overhead(o, v);
    probe_core(o.smoke, shape, v);
    probe_fiber(o.smoke, v);
    probe_machine(o.smoke, v);
    probe_net(o, v);
    probe_stack(o.smoke, v);
  }

  const double steps = traced.steps;
  const double step_plain = median(plain.step_s);
  const double step_traced = median(traced.step_s);
  const std::string r0 = traced.rank0_only ? "rank 0 only" : "";
  const std::string on_shape =
      stencil_wl ? "" : "on the stencil-fine shape (pool-map runs no stencil)";
  const double fb = static_cast<double>(face_bytes(shape.geo));
  const std::string fl = size_label(static_cast<std::size_t>(fb));
  const double pes = traced.pes;

  // apps
  rep.layer("apps.kernel_ns_per_cell", at(v, "apps.kernel_ns_per_cell"),
            "ns/cell", "kern::compute on one block, " + on_shape);
  rep.layer("apps.face_copy_ns_per_byte", at(v, "apps.face_copy_ns_per_byte"),
            "ns/B", "extract_face + inject_face per face byte " + on_shape);
  rep.layer("apps.kernel_flops_per_step", at(v, "apps.kernel_flops_per_step"),
            "flop", "computed, not measured: 7 per cell update");
  rep.layer("apps.kernel_bytes_per_step_computed",
            at(v, "apps.kernel_bytes_per_step_computed"), "B",
            "computed, not measured: 24 B compulsory traffic per cell");
  rep.layer("apps.serial_step_ms", at(v, "apps.serial_step_ms"), "ms",
            "stencil::serial_checksum, single thread " + on_shape);
  const double kernel_step_s = at(v, "apps.kernel_ns_per_cell") * 1e-9 *
                               cells_per_step(shape.geo) / pes;
  rep.layer("apps.kernel_share",
            stencil_wl ? kernel_step_s / step_traced : 0.0, "ratio",
            stencil_wl ? "kernel time per PE over the traced step time"
                       : "no kernel runs in pool-map");

  // pup
  for (const std::size_t b : {512u, 2048u, 32768u}) {
    const std::string l = size_label(b);
    rep.layer("pup.pack_ns_per_byte-" + l, at(v, "pup.pack_ns_per_byte-" + l),
              "ns/B", "pup::to_bytes of a vector<double>");
    rep.layer("pup.unpack_ns_per_byte-" + l,
              at(v, "pup.unpack_ns_per_byte-" + l), "ns/B",
              "pup::from_bytes of a vector<double>");
  }

  // model
  rep.layer("model.value_pack_ns", at(v, "model.value_pack_ns"), "ns",
            "pup of a 512 B cpy::Value ndarray");
  rep.layer("model.dispatch_ns", at(v, "model.dispatch_ns"), "ns",
            "same-PE name-dispatched send, delivered");
  rep.layer("model.when_eval_ns", at(v, "model.when_eval_ns"), "ns",
            "Expr test of 'self.iter == iter'");
  rep.layer("model.dyn_overhead_us_per_msg",
            at(v, "model.dyn_overhead_us_per_msg"), "us",
            "(cpy - cx) step time on the stencil-fine shape per message");

  // wire
  const auto& w = traced.wire;
  const double env = static_cast<double>(w.envelopes);
  rep.layer("wire.envelopes_per_step", ratio(env, steps), "count", r0);
  rep.layer("wire.bytes_per_envelope",
            ratio(static_cast<double>(w.bytes_packed), env), "B", r0);
  rep.layer("wire.allocs_per_envelope",
            ratio(static_cast<double>(w.buf_allocs + w.msg_allocs +
                                      w.env_allocs),
                  env),
            "count", r0);
  rep.layer("wire.pool_hit_rate", w.hit_rate(), "ratio", r0);
  rep.layer("wire.sbo_share", ratio(static_cast<double>(w.sbo_payloads), env),
            "ratio", r0);
  rep.layer("wire.transport_per_step",
            ratio(static_cast<double>(w.transport_msgs), steps), "count", r0);

  // core
  const auto& wh = traced.when;
  const auto& ag = traced.agg;
  rep.layer("core.when_tests_per_step",
            ratio(static_cast<double>(wh.tests), steps), "count", r0);
  rep.layer("core.when_buffered_share",
            ratio(static_cast<double>(wh.buffered),
                  static_cast<double>(ag.msgs_recv)),
            "ratio", "deliveries buffered by a when condition per message "
                     "received " + r0);
  rep.layer("core.when_skip_rate", wh.skip_rate(), "ratio", r0);
  rep.layer("core.future_roundtrip_us-same_pe",
            at(v, "core.future_roundtrip_us-same_pe"), "us",
            "empty call().get()");
  rep.layer("core.future_roundtrip_us-cross_pe",
            at(v, "core.future_roundtrip_us-cross_pe"), "us",
            "empty call().get()");
  rep.layer("core.group_reduce_us", at(v, "core.group_reduce_us"), "us",
            "Group broadcast + empty contribute into a future, 4 PEs");
  rep.layer("core.create_array_ms", at(v, "core.create_array_ms"), "ms",
            "create_array of the block grid until a broadcast reaches all");

  rep.layer("fiber.switch_ns", at(v, "fiber.switch_ns"), "ns",
            "cxf::Fiber resume + yield pair");

  // machine
  for (const std::size_t b : kLadderBytes) {
    const std::string k = "machine.oneway_us-" + size_label(b);
    rep.layer(k, at(v, k), "us", "raw Machine::send ping-pong, 2 threaded PEs");
  }
  rep.layer("machine.stream_MBps-1MiB", at(v, "machine.stream_MBps-1MiB"),
            "MB/s", "windows of 16 x 1 MiB, 2 threaded PEs");
  rep.layer("machine.busy_share", ratio(ag.entry_time, traced.lifetime_pe_s),
            "ratio", "entry-method time over runtime lifetime x PEs " + r0);
  rep.layer("machine.idle_share", ratio(ag.idle_time, traced.lifetime_pe_s),
            "ratio", r0);
  rep.layer("machine.idle_spans_per_step",
            ratio(static_cast<double>(ag.idle_spans), steps), "count", r0);
  double busy_max = 0.0, busy_sum = 0.0;
  for (const double b : traced.pe_busy_s) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  rep.layer("machine.pe_busy_imbalance",
            traced.pe_busy_s.empty()
                ? 0.0
                : ratio(busy_max, busy_sum / traced.pe_busy_s.size()),
            "ratio", "max over mean PE busy time " + r0);
  rep.layer("machine.msgs_per_step",
            ratio(static_cast<double>(ag.msgs_sent), steps), "count", r0);
  rep.layer("machine.bytes_per_step",
            ratio(static_cast<double>(ag.bytes_sent), steps), "B", r0);
  rep.layer("machine.startup_ms", at(v, "machine.startup_ms"), "ms",
            "4-PE threaded machine: construct, first message on every PE, "
            "stop, join");

  // net
  for (const std::size_t b : kLadderBytes) {
    const std::string k = "net.oneway_us-" + size_label(b);
    rep.layer(k, at(v, k), "us", "raw Machine ping-pong under cxrun -np 2");
  }
  rep.layer("net.stream_MBps-1MiB", at(v, "net.stream_MBps-1MiB"), "MB/s",
            "windows of 16 x 1 MiB under cxrun -np 2");
  rep.layer("net.frame_encode_ns_per_byte",
            at(v, "net.frame_encode_ns_per_byte"), "ns/B",
            "encode_frame of a 32 KiB message");
  rep.layer("net.frame_decode_ns_per_byte",
            at(v, "net.frame_decode_ns_per_byte"), "ns/B",
            "FrameReader feed + next of a 32 KiB frame");
  rep.layer("net.wireup_ms", at(v, "net.wireup_ms"), "ms",
            "SocketMachine construction on rank 0: rendezvous + mesh");

  // pool
  const auto& ps = traced.pool;
  const std::string pool_note =
      stencil_wl ? "the stencils bypass the pool" : "";
  rep.layer("pool.grants_per_job",
            stencil_wl ? 0.0 : ratio(static_cast<double>(ps.grants), steps),
            "count", pool_note);
  rep.layer("pool.mean_chunk", ps.mean_chunk(), "count", pool_note);
  rep.layer("pool.steal_hit_rate", ps.steal_hit_rate(), "ratio", pool_note);
  rep.layer("pool.result_batches_per_job",
            stencil_wl ? 0.0
                       : ratio(static_cast<double>(ps.result_batches), steps),
            "count", pool_note);
  rep.layer("pool.task_us_p99", ps.tasks_done > 0 ? ps.p99_task_s() * 1e6 : 0,
            "us", "upper edge of the log2 bucket " + pool_note);

  // stack
  for (const std::size_t b : kLadderBytes) {
    const std::string l = size_label(b);
    rep.layer("stack.oneway_us-" + l, at(v, "stack.oneway_us-" + l), "us",
              "typed chare ping-pong, 2 threaded PEs");
    rep.layer("stack.cpy_oneway_us-" + l, at(v, "stack.cpy_oneway_us-" + l),
              "us", "dynamic chare ping-pong, 2 threaded PEs");
  }

  // trace and accounting
  rep.layer("trace.overhead_share", (step_traced - step_plain) / step_plain,
            "ratio",
            stencil_wl ? "traced over untraced median step time, minus 1"
                       : "traced over untraced median job time, minus 1");
  double unaccounted = 0.0;
  std::string acc_note;
  if (stencil_wl) {
    // Layer CPU time per step, summed over PEs: kernel, face copies,
    // PUP of every face, and for cpy the name dispatch and when tests.
    const double faces = static_cast<double>(faces_per_step(shape.geo));
    const double pup_b = (at(v, "pup.pack_ns_per_byte-" + fl) +
                          at(v, "pup.unpack_ns_per_byte-" + fl)) * 1e-9;
    double layer_s = at(v, "apps.kernel_ns_per_cell") * 1e-9 *
                         cells_per_step(shape.geo) +
                     faces * fb * (at(v, "apps.face_copy_ns_per_byte") * 1e-9 +
                                   pup_b);
    if (shape.dynamic) {
      layer_s += faces * at(v, "model.dispatch_ns") * 1e-9 +
                 ratio(static_cast<double>(wh.tests), steps) *
                     at(v, "model.when_eval_ns") * 1e-9;
    }
    unaccounted = 1.0 - layer_s / (pes * step_traced);
    acc_note = "1 - summed layer CPU time per step / (PEs x traced step)";
  } else {
    unaccounted =
        1.0 - static_cast<double>(ps.task_ns_sum) * 1e-9 / traced.worker_s;
    acc_note = "1 - task execution time / (job time x granted workers)";
  }
  rep.layer("accounting.unaccounted_share", unaccounted, "ratio", acc_note);
  for (const std::size_t b : kLadderBytes) {
    const std::string l = size_label(b);
    const double layers = at(v, "machine.oneway_us-" + l) +
                          (at(v, "pup.pack_ns_per_byte-" + l) +
                           at(v, "pup.unpack_ns_per_byte-" + l)) *
                              static_cast<double>(b) * 1e-3;
    rep.layer("accounting.unaccounted_share-" + l,
              1.0 - layers / at(v, "stack.oneway_us-" + l), "ratio",
              "1 - (machine one-way + pack + unpack) / typed stack one-way");
  }
  // Faults are off, so the fault-tolerance protocol must stay silent: any
  // ack or retransmit is a failed check, not just a worse number.
  const double ft_msgs = static_cast<double>(ag.ft_acks + ag.ft_retransmits);
  rep.layer("ft.protocol_msgs_per_step", ratio(ft_msgs, steps), "count",
            "acks + retransmits; faults are off " + r0);
  rep.op(ft_msgs == 0.0 ? ""
                        : o.workload + ": " + jnum(ft_msgs) +
                              " fault-tolerance protocol messages with "
                              "faults off");

  rep.info("steal_dropped_ops", plain.steal_dropped + traced.steal_dropped);
  rep.info("traced_step_samples", static_cast<double>(traced.step_s.size()));
  rep.info("untraced_step_samples", static_cast<double>(plain.step_s.size()));
}

}  // namespace pb
