#include "machine/sim_machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace cxm {

SimMachine::SimMachine(const MachineConfig& cfg)
    : Machine(cfg, 0, 1, cfg.num_pes),
      clock_(static_cast<std::size_t>(num_pes_), 0.0),
      net_(make_network(cfg.network, cfg.net, num_pes_)),
      windows_(static_cast<std::size_t>(num_pes_)),
      parked_(static_cast<std::size_t>(num_pes_)) {
  fifo_ = std::getenv("CHARMX_SIM_FIFO") != nullptr || agg_on_;
  if (ft_enabled_) script_ = ft_.full_script();
}

SimMachine::~SimMachine() {
  while (!heap_.empty()) {
    delete heap_.top().msg;
    heap_.pop();
  }
  for (auto& q : parked_) {
    for (Message* m : q) delete m;
  }
}

void SimMachine::push_timer(int pe, int dst, std::uint64_t seq, double at) {
  auto* m = new Message();
  m->dst_pe = pe;  // the timer fires on the sending PE
  m->src_pe = pe;
  m->ft_peer = dst;
  m->ft_seq = seq;
  m->ft_flags = kFtTimer;
  heap_.push(Event{at, seq_++, m});
}

void SimMachine::push_agg_flush(int pe, int dst, std::uint64_t gen,
                                double at) {
  auto* m = new Message();
  m->dst_pe = pe;  // fires on the sending PE, like an ft timer
  m->src_pe = pe;
  m->ft_peer = dst;
  m->ft_seq = gen;
  m->wire_flags = kWireAggFlush;
  heap_.push(Event{at, seq_++, m});
}

void SimMachine::drain_agg(int pe) {
  auto& a = agg(pe);
  while (MessagePtr batch = a.next_ready()) send(std::move(batch));
}

void SimMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = current_pe_;
  msg->src_pe = src;
  if (agg_on_ && src >= 0) {
    auto& a = agg(src);
    if (cx::wire::agg_eligible(*msg, a.config())) {
      // Absorbed: the logical MsgSend happens now at a fraction of the
      // per-message cost; the batch pays the full hand-off once.
      auto& clk = clock_[static_cast<std::size_t>(src)];
      clk += net_->agg_overhead();
      CX_TRACE_EVENT(src, clk, cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
      const bool arm = a.absorb(std::move(msg));
      if (arm) {
        push_agg_flush(src, dst, a.generation(dst),
                       clk + a.config().flush_delay_s);
      }
      drain_agg(src);
      return;
    }
    // Bypassing message (protocol, oversized, local, ...) headed to a
    // destination with an open batch: seal the batch first so it stays
    // ahead on the in-order channel.
    if ((msg->wire_flags & kWireAggBatch) == 0 && dst != src &&
        msg->local == nullptr && a.dst_pending(dst)) {
      a.flush_dst(dst, cx::wire::AggFlush::Ordering);
      drain_agg(src);
    }
  }
  double arrival = 0.0;
  if (src >= 0) {
    // Sender-side software overhead is CPU time on the sending PE.
    clock_[static_cast<std::size_t>(src)] += net_->cpu_overhead();
    arrival = clock_[static_cast<std::size_t>(src)] +
              net_->delay(src, dst, msg->wire_size());
    if ((msg->wire_flags & kWireAggBatch) == 0) {
      CX_TRACE_EVENT(src, clock_[static_cast<std::size_t>(src)],
                     cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
    }
    if (dst != src && msg->local == nullptr) {
      cx::trace::detail::g_wire.transport_msgs.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    const double send_time = clock_[static_cast<std::size_t>(src)];
    if (ft_.reliable && msg->ft_flags == 0) {
      const double deadline = send_time + inj_->retry_timeout(0);
      push_timer(src, dst,
                 enroll_reliable(windows_[static_cast<std::size_t>(src)],
                                 *msg, deadline),
                 deadline);
    }
    if (ft_.injecting()) {
      const auto d = inj_->on_wire();
      if (d.drop) {
        CX_TRACE_EVENT(src, send_time, cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;  // lost on the wire; the pending copy recovers it
      }
      arrival += d.extra_delay;
      if (d.dup) {
        heap_.push(Event{arrival, seq_++, new Message(*msg)});
      }
    }
  }
  if (fifo_) {
    auto& last = last_arrival_[{src, dst}];
    arrival = std::max(arrival, last);
    last = arrival;
  }
  heap_.push(Event{arrival, seq_++, msg.release()});
}

void SimMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  const int src = current_pe_;
  msg->src_pe = src;
  const double base = src >= 0 ? clock_[static_cast<std::size_t>(src)] : 0.0;
  // A timer delivery, not a network message: no overhead, no cost model,
  // no fault injection.
  heap_.push(Event{base + delay_s, seq_++, msg.release()});
}

double SimMachine::now() const {
  if (current_pe_ < 0) return 0.0;
  return clock_[static_cast<std::size_t>(current_pe_)];
}

void SimMachine::charge(double seconds) {
  if (current_pe_ >= 0) {
    clock_[static_cast<std::size_t>(current_pe_)] += seconds;
  }
}

void SimMachine::check_scripted(double time) {
  while (next_script_ < script_.size() && time >= script_[next_script_].at) {
    const cx::ft::ScriptedFault& f = script_[next_script_++];
    if (f.pe < 0 || f.pe >= num_pes_) continue;
    if (crashed(f.pe) || hung(f.pe)) continue;  // already down
    // The PE died/froze: its unacked sends die with it (a hung
    // scheduler fires no retransmit timers either).
    windows_[static_cast<std::size_t>(f.pe)].sw.pending.clear();
    if (f.kind == cx::ft::FailureKind::Crashed) {
      (void)mark_crashed(f.pe);
      fail_pe(f.pe, cx::ft::FailureKind::Crashed, f.at);
    } else {
      // No notification: a hang is only *detected* — by peers'
      // retransmits giving up or the heartbeat detector.
      (void)mark_hung(f.pe);
    }
  }
}

void SimMachine::inject_kill(int pe) {
  if (pe < 0 || pe >= num_pes_ || !mark_crashed(pe)) return;
  windows_[static_cast<std::size_t>(pe)].sw.pending.clear();
  fail_pe(pe, cx::ft::FailureKind::Crashed, caller_time());
}

void SimMachine::inject_hang(int pe) {
  if (pe < 0 || pe >= num_pes_ || crashed(pe) || !mark_hung(pe)) return;
  windows_[static_cast<std::size_t>(pe)].sw.pending.clear();
  // Silent by design: peers must discover the hang themselves.
}

void SimMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  if (pe < 0 || pe >= num_pes_) return;
  mark_declared(pe, kind);
  windows_[static_cast<std::size_t>(pe)].sw.pending.clear();
  // Every peer stops (re)sending to the declared-dead PE immediately.
  for (auto& w : windows_) w.sw.abandon(pe);
  fail_pe(pe, kind, caller_time());
}

void SimMachine::revive_pe(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  clear_failure(pe);
  for (Message* m : parked_[i]) delete m;
  parked_[i].clear();
  // Peers stop retrying the old traffic: the restore path rebuilds
  // application state, so pre-failure messages must not resurface.
  for (auto& w : windows_) w.sw.abandon(pe);
  // Discard half-open batches from before the failure for the same
  // reason (the aggregator recreates lazily on the next send).
  if (agg_on_) aggs_[i].reset();
}

void SimMachine::handle_timer(int pe, const Message& msg, double time) {
  if (crashed(pe) || hung(pe)) return;  // dead PEs fire nothing
  const auto i = static_cast<std::size_t>(pe);
  auto& sw = windows_[i].sw;
  const int dst = msg.ft_peer;
  auto it = sw.pending.find({dst, msg.ft_seq});
  if (it == sw.pending.end()) return;  // already acked: stale timer
  auto& clk = clock_[i];
  if (time > clk) clk = time;
  current_pe_ = pe;
  cx::ft::PendingSend& p = it->second;
  if (p.attempts >= ft_.retry.max_attempts) {
    // Give up: declare the destination unreachable and stop all traffic
    // to it, surfacing a typed failure instead of retrying forever.
    sw.abandon(dst);
    if (dst >= 0 && dst < num_pes_) {
      mark_unreachable(dst);
      fail_pe(dst, cx::ft::FailureKind::Unreachable, clk);
    }
    return;
  }
  p.attempts++;
  CX_TRACE_EVENT(pe, clk, cx::trace::EventKind::FtRetransmit,
                 static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(p.attempts));
  auto copy = retransmit_copy(p);
  p.deadline = clk + inj_->retry_timeout(p.attempts);
  push_timer(pe, dst, p.seq, p.deadline);
  send(std::move(copy));
}

void SimMachine::run() {
  running_ = true;
  stop_ = false;
  while (!stop_ && !heap_.empty()) {
    Event ev = heap_.top();
    heap_.pop();
    MessagePtr msg(ev.msg);
    const int pe = msg->dst_pe;
    if (ft_enabled_ || any_failed_.load(std::memory_order_relaxed)) {
      if (next_script_ < script_.size()) check_scripted(ev.time);
      if (msg->ft_flags & kFtTimer) {
        handle_timer(pe, *msg, ev.time);
        continue;
      }
      if (crashed(pe)) {
        CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::FtDrop,
                       kDropDeadDst, msg->ft_seq);
        continue;
      }
      if (hung(pe)) {
        parked_[static_cast<std::size_t>(pe)].push_back(msg.release());
        continue;
      }
    }
    auto& clk = clock_[static_cast<std::size_t>(pe)];
    if (ev.time > clk) {
      // The PE's virtual clock jumps forward to the arrival: that gap is
      // scheduler idle time in the simulated timeline.
      CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>((ev.time - clk) * 1e9), 0);
      clk = ev.time;
    }
    if (agg_on_ && (msg->wire_flags & kWireAggFlush) != 0) {
      // Deterministic idle-equivalent flush on the sending PE. No
      // cpu_overhead charge: the sealed batch pays it in send().
      current_pe_ = pe;
      cxu::set_log_pe(pe);
      agg(pe).flush_timer(msg->ft_peer, msg->ft_seq);
      drain_agg(pe);
      ++events_processed_;
      continue;
    }
    clk += net_->cpu_overhead();  // receiver-side software overhead
    current_pe_ = pe;
    cxu::set_log_pe(pe);
    FtWindows* ft =
        ft_enabled_ ? &windows_[static_cast<std::size_t>(pe)] : nullptr;
    if (receive(pe, std::move(msg), ft, net_->agg_overhead())) {
      ++events_processed_;
    }
  }
  current_pe_ = -1;
  cxu::set_log_pe(-1);
  running_ = false;
}

double SimMachine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace cxm
