#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "proto/message.hpp"
#include "support/sim_time.hpp"
#include "topo/allocation.hpp"

namespace dws::proto {

/// Everything a Peer asks of the outside world. The protocol core emits
/// sends, arms timers, and signals lifecycle transitions through this
/// interface; it never schedules events or touches threads itself.
///
/// Two bindings exist (DESIGN.md §11):
///  - svc::JobBinding, the simulator's one executor (single-job runs and
///    service streams alike), adapts it onto the discrete-event simulator:
///    send() enters sim::Network, timers become kStealTimeout/kTokenTimeout
///    events, and the clock is the engine's virtual time;
///  - rt::RankExecutor adapts it onto real threads: send() pushes onto the
///    destination's MPSC channel, timers are deadlines polled by the rank
///    loop, and the clock is a shared steady_clock epoch.
///
/// Peers pass `now` into every entry point instead of reading a clock, so
/// the same decision sequence replays bit-identically under either time
/// source (and under the scripted clocks of the parity tests).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Ship `msg` to rank `to` now. `cls` is the fault-injection loss class
  /// (meaningful only to the simulator binding; real channels are reliable).
  virtual void send(topo::Rank to, Message msg, std::uint32_t bytes,
                    fault::MsgClass cls) = 0;

  /// Ship a steal response after the victim-side packaging delay already
  /// charged to the victim's poll boundary. The simulator parks the response
  /// until the delay elapses; the native runtime sends immediately (the
  /// packaging time has genuinely passed on the victim's thread).
  virtual void send_deferred(support::SimTime delay, topo::Rank to,
                             StealResponse resp, std::uint32_t bytes,
                             fault::MsgClass cls) = 0;

  /// Arm the per-request steal timer: after `delay`, call
  /// Peer::on_steal_timeout(request_id). Stale firings (the answer arrived,
  /// a newer request is out) are filtered by the peer — timers need not be
  /// cancellable.
  virtual void arm_steal_timer(support::SimTime delay,
                               std::uint32_t request_id) = 0;

  /// Arm rank 0's token-circulation timer: after `delay`, call
  /// Peer::on_token_timeout(generation). Same staleness contract as above.
  virtual void arm_token_timer(support::SimTime delay,
                               std::uint32_t generation) = 0;

  /// The peer transitioned Idle -> Active (work arrived or the root was
  /// seeded): the binding resumes its execution loop.
  virtual void activated() = 0;

  /// Rank 0 proved global quiescence at time `at` (called exactly once per
  /// run, before the Terminate fan-out leaves).
  virtual void terminated(support::SimTime at) = 0;
};

}  // namespace dws::proto
