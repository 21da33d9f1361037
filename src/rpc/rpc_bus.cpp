#include "rpc/rpc_bus.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace smarth::rpc {

void RpcBus::set_host_down(NodeId node, bool down) {
  SMARTH_CHECK(node.valid());
  const auto idx = static_cast<std::size_t>(node.value());
  if (down_.size() <= idx) down_.resize(idx + 1, false);
  down_[idx] = down;
}

bool RpcBus::host_down(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node.value());
  return idx < down_.size() && down_[idx];
}

void RpcBus::set_service_queue(NodeId server, ServiceQueue* queue) {
  SMARTH_CHECK(server.valid());
  const auto idx = static_cast<std::size_t>(server.value());
  if (queues_.size() <= idx) queues_.resize(idx + 1, nullptr);
  queues_[idx] = queue;
}

ServiceQueue* RpcBus::service_queue(NodeId server) const {
  const auto idx = static_cast<std::size_t>(server.value());
  return idx < queues_.size() ? queues_[idx] : nullptr;
}

void RpcBus::record_dropped_call(NodeId client, NodeId server) {
  metrics_.calls_dropped->add();
  SMARTH_DEBUG("rpc") << "dropped call " << client.value() << " -> "
                      << server.value() << " (endpoint down)";
}

bool RpcBus::admit_under_chaos(NodeId from, NodeId to, SimDuration& extra) {
  Rng& rng = network_.simulation().rng();
  if (chaos_.loss_probability > 0.0 &&
      rng.uniform() < chaos_.loss_probability) {
    metrics_.messages_lost->add();
    SMARTH_DEBUG("rpc") << "chaos lost control message " << from.value()
                        << " -> " << to.value();
    return false;
  }
  extra = chaos_.delay_mean;
  if (chaos_.delay_jitter > 0) {
    extra += rng.uniform_int(0, chaos_.delay_jitter - 1);
  }
  if (extra > 0) metrics_.messages_delayed->add();
  return true;
}

RpcBus::LabelCounters& RpcBus::label_counters(const char* label) {
  for (const auto& counters : labels_) {
    if (counters->name == label) return *counters;
  }
  return *labels_.emplace_back(std::make_unique<LabelCounters>(label));
}

void RpcBus::notify(NodeId sender, NodeId receiver,
                    std::function<void()> handler, CallOptions options) {
  static_assert(sim::Simulation::Callback::stores_inline<NoticeStep>());
  if (host_down(sender) || host_down(receiver)) {
    record_dropped_call(sender, receiver);
    return;
  }
  Notice* notice = notices_.acquire();
  notice->bus = this;
  ++records_in_use_;
  notice->sender = sender;
  notice->receiver = receiver;
  notice->options = options;
  notice->handler = std::move(handler);
  send_control(sender, receiver, kRequestWireSize,
               NoticeStep{notice, notice->generation, NoticeStage::kDeliver});
}

void RpcBus::run(const NoticeStep& step) {
  Notice* notice = step.notice;
  SMARTH_DCHECK(notice->generation == step.generation);
  switch (step.stage) {
    case NoticeStage::kDeliver: {
      if (host_down(notice->receiver)) {
        record_dropped_call(notice->sender, notice->receiver);
        release(notice);
        return;
      }
      ServiceQueue* queue = service_queue(notice->receiver);
      if (queue == nullptr) {
        network_.simulation().schedule_after(
            kServiceTime, NoticeStep{notice, step.generation, NoticeStage::kRun});
        return;
      }
      queue->submit(notice->options.svc, notice->options.tenant,
                    NoticeStep{notice, step.generation, NoticeStage::kServe},
                    NoticeStep{notice, step.generation, NoticeStage::kShed});
      return;
    }
    case NoticeStage::kServe:
      if (host_down(notice->receiver)) {
        record_dropped_call(notice->sender, notice->receiver);
        release(notice);
        return;
      }
      [[fallthrough]];
    case NoticeStage::kRun:
      notice->handler();
      release(notice);
      return;
    case NoticeStage::kShed:
      release(notice);
      return;
  }
}

void RpcBus::release(Notice* notice) {
  notice->handler = nullptr;
  ++notice->generation;
  notices_.release(notice);
  --records_in_use_;
}

}  // namespace smarth::rpc
