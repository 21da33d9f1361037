// Client-side RPC retry: per-attempt timeout, exponential backoff with
// multiplicative jitter, bounded attempts. The simulated RpcBus silently
// drops messages to/from down hosts (like real lost TCP SYNs), so every
// consumer that must make progress through faults wraps its calls here
// instead of waiting forever on a response that will never come.
//
// A retried call is one RpcBus call record for all its attempts: the retry
// state lives in the record, and each timeout and backoff event carries only
// the record and its generation.
//
// Duplicate-response hygiene: an attempt that merely timed out may still
// deliver its response later (slow, not lost). The record's `settled` flag
// ensures exactly one of {on_response, on_give_up} runs, exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::rpc {

namespace detail {

/// Backoff before the attempt after `attempt`, with multiplicative jitter.
inline SimDuration retry_backoff(const RetryPolicy& policy, int attempt,
                                 sim::Simulation& sim) {
  SimDuration backoff = policy.backoff_base;
  for (int i = 2; i < attempt + 1 && backoff < policy.backoff_max; ++i) {
    backoff *= 2;
  }
  if (backoff > policy.backoff_max) backoff = policy.backoff_max;
  if (policy.jitter > 0.0) {
    const double scale = 1.0 + policy.jitter * (2.0 * sim.rng().uniform() - 1.0);
    backoff = static_cast<SimDuration>(static_cast<double>(backoff) * scale);
  }
  return backoff;
}

/// The retry half of a call record: launches attempts, times them out,
/// backs off and settles.
template <typename Resp>
struct Retry {
  using Call = RpcBus::Call<Resp>;

  /// Attempt `attempt`'s deadline. Holds no reference: once the call has
  /// settled and its record was recycled, the generation no longer matches.
  struct Timeout {
    Call* call;
    std::uint32_t generation;
    std::uint32_t attempt;
    void operator()() const { on_timeout(call, generation, attempt); }
  };

  /// A backoff that ends in a new attempt; holds a reference, since the
  /// attempt it launches needs the record.
  struct Relaunch {
    Call* call;
    /// An overload backoff stands down if the call settled meanwhile; a
    /// timeout backoff relaunches regardless.
    bool unless_settled;
    void operator()() const { relaunch(call, unless_settled); }
  };

  static void start(RpcBus& bus, sim::Simulation& sim,
                    const RetryPolicy& policy, NodeId client, NodeId server,
                    std::function<Resp()> handler,
                    std::function<void(Resp)> on_response,
                    std::function<void()> on_give_up,
                    std::shared_ptr<RetryStats> stats, const char* label,
                    CallOptions options, std::function<Resp()> shed_response,
                    std::function<bool(const Resp&)> retry_on) {
    static_assert(sim::Simulation::Callback::stores_inline<Timeout>());
    static_assert(sim::Simulation::Callback::stores_inline<Relaunch>());
    // The caller's reference from open_call stays until the call settles.
    Call* call = bus.open_call<Resp>(client, server, options);
    call->handler = std::move(handler);
    call->on_response = std::move(on_response);
    call->shed_response = std::move(shed_response);
    call->on_reply = &on_reply;
    call->sim = &sim;
    call->policy = policy;
    call->on_give_up = std::move(on_give_up);
    call->retry_on = std::move(retry_on);
    call->stats = std::move(stats);
    call->label = &bus.label_counters(label);
    launch(call);
  }

  static RpcBus& bus(Call* call) { return *call->pool->bus; }
  static const std::string& label(Call* call) { return call->label->name; }

  static void launch(Call* call) {
    call->response_retry_pending = false;
    const std::uint32_t attempt = ++call->attempt;
    if (attempt > 1) {
      if (call->stats) ++call->stats->retries;
      bus(call).metrics_.retries->add();
      call->label->retries->add();
      if (trace::active()) {
        trace::recorder()->instant(
            trace::Category::kRpc, "rpc", "retry " + label(call),
            {{"attempt", std::to_string(attempt)},
             {"client", call->client.to_string()},
             {"server", call->server.to_string()}});
      }
    }
    bus(call).start_attempt(call, attempt);
    call->sim->schedule_after(call->policy.timeout,
                              Timeout{call, call->generation, attempt});
  }

  static void schedule_relaunch(Call* call, SimDuration backoff,
                                bool unless_settled) {
    ++call->refs;
    call->sim->schedule_after(backoff, Relaunch{call, unless_settled});
  }

  static void relaunch(Call* call, bool unless_settled) {
    if (!(unless_settled && call->settled)) launch(call);
    bus(call).unref(call);
  }

  /// Settles the call (the caller's reference goes with it).
  template <typename F>
  static void settle(Call* call, F&& notify_caller) {
    call->settled = true;
    notify_caller();
    bus(call).unref(call);
  }

  static void on_reply(Call* call, std::uint32_t attempt, Resp&& resp) {
    if (call->settled) return;  // a slow earlier attempt already won
    const int max_attempts = call->policy.max_attempts;
    if (call->retry_on && call->retry_on(resp) &&
        static_cast<int>(attempt) < max_attempts && call->attempt == attempt &&
        !call->response_retry_pending) {
      // Retryable rejection (e.g. overloaded): back off and relaunch.
      call->response_retry_pending = true;
      bus(call).metrics_.overload_retries->add();
      call->label->overload_retries->add();
      schedule_relaunch(call,
                        retry_backoff(call->policy, static_cast<int>(attempt),
                                      *call->sim),
                        /*unless_settled=*/true);
      return;
    }
    if (call->retry_on) {
      // A stale rejection from a superseded attempt, or a duplicate while
      // this attempt's backoff relaunch is pending: the in-flight attempt
      // owns the outcome.
      if (call->attempt != attempt && call->retry_on(resp)) return;
      if (call->response_retry_pending && call->attempt == attempt) return;
    }
    settle(call, [&] { call->on_response(std::move(resp)); });
  }

  static void on_timeout(Call* call, std::uint32_t generation,
                         std::uint32_t attempt) {
    if (call->generation != generation) return;  // settled and recycled
    if (call->settled || call->attempt != attempt ||
        call->response_retry_pending) {
      return;
    }
    const int attempts = static_cast<int>(attempt);
    if (attempts >= call->policy.max_attempts) {
      settle(call, [call, attempts] {
        if (call->stats) ++call->stats->give_ups;
        bus(call).metrics_.give_ups->add();
        if (trace::active()) {
          trace::recorder()->instant(
              trace::Category::kRpc, "rpc", "give-up " + label(call),
              {{"attempts", std::to_string(attempts)},
               {"client", call->client.to_string()},
               {"server", call->server.to_string()}});
        }
        call->on_give_up();
      });
      return;
    }
    const SimDuration backoff =
        retry_backoff(call->policy, attempts, *call->sim);
    if (trace::active()) {
      trace::recorder()->instant(
          trace::Category::kRpc, "rpc", "backoff " + label(call),
          {{"next_attempt", std::to_string(attempts + 1)},
           {"backoff", format_duration(backoff)},
           {"client", call->client.to_string()},
           {"server", call->server.to_string()}});
    }
    schedule_relaunch(call, backoff, /*unless_settled=*/false);
  }
};

}  // namespace detail

/// Issues `bus.call<Resp>(client, server, handler, ...)` with retries.
/// `on_response` receives the first response to arrive; `on_give_up` runs if
/// all attempts time out. `stats` (optional) must outlive the call chain —
/// pass a shared_ptr owned by the initiating stream/client. `label` names
/// the call in the metrics registry and trace ("rpc.<label>.retries"); every
/// retry and give-up also lands in the global rpc.retries / rpc.give_ups
/// counters, which mirror the summed RetryStats of all callers.
///
/// `options` / `shed_response` thread through to the bus (service-queue
/// classification and typed shed rejections). `retry_on` (optional) makes a
/// *response* retryable: when it returns true for an arriving response and
/// attempts remain, the call backs off and relaunches instead of settling —
/// this is how clients honor the namenode's typed `overloaded` rejections
/// with the existing backoff machinery. The final attempt's response is
/// always delivered, so callers see the error and can fall back to their own
/// budgeted wait.
template <typename Resp>
void call_with_retry(RpcBus& bus, sim::Simulation& sim,
                     const RetryPolicy& policy, NodeId client, NodeId server,
                     std::function<Resp()> handler,
                     std::function<void(Resp)> on_response,
                     std::function<void()> on_give_up,
                     std::shared_ptr<RetryStats> stats = nullptr,
                     const char* label = "call", CallOptions options = {},
                     std::function<Resp()> shed_response = nullptr,
                     std::function<bool(const Resp&)> retry_on = nullptr) {
  detail::Retry<Resp>::start(bus, sim, policy, client, server,
                             std::move(handler), std::move(on_response),
                             std::move(on_give_up), std::move(stats), label,
                             options, std::move(shed_response),
                             std::move(retry_on));
}

}  // namespace smarth::rpc
