#include "net/link.hpp"

#include "common/check.hpp"

namespace smarth::net {

Link::Link(sim::Simulation& sim, std::string name, Bandwidth capacity,
           SimDuration latency)
    : sim_(sim), name_(std::move(name)), capacity_(capacity),
      latency_(latency) {
  SMARTH_CHECK_MSG(latency_ >= 0, "negative link latency on " << name_);
}

std::uint32_t Link::acquire_slot(Bytes size, DeliveryCallback&& cb) {
  std::uint32_t slot = free_slots_;
  if (slot != kNoSlot) {
    free_slots_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].size = size;
  slots_[slot].on_delivered = std::move(cb);
  return slot;
}

void Link::push(Fifo& fifo, std::uint32_t slot) {
  slots_[slot].next = kNoSlot;
  if (fifo.empty()) {
    fifo.head = slot;
  } else {
    slots_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
}

std::uint32_t Link::pop(Fifo& fifo) {
  const std::uint32_t slot = fifo.head;
  fifo.head = slots_[slot].next;
  if (fifo.empty()) fifo.tail = kNoSlot;
  return slot;
}

Link::Fifo& Link::flow_queue(FlowKey flow) {
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].flow == flow) return ring_[i].queue;
  }
  ring_.push_back(ActiveFlow{flow, {}});
  return ring_[ring_.size() - 1].queue;
}

void Link::transmit(Bytes size, DeliveryCallback on_delivered,
                    LinkPriority priority, FlowKey flow) {
  SMARTH_CHECK_MSG(size >= 0, "negative message size on " << name_);
  SMARTH_CHECK(static_cast<bool>(on_delivered));
  const std::uint32_t slot = acquire_slot(size, std::move(on_delivered));
  if (priority == LinkPriority::kControl) {
    push(control_queue_, slot);
    ++control_queued_;
  } else {
    push(flow_queue(flow), slot);
    ++bulk_queued_;
  }
  queued_bytes_ += size;
  try_start_next();
}

void Link::pause() { paused_ = true; }

void Link::resume() {
  if (!paused_) return;
  paused_ = false;
  try_start_next();
}

void Link::try_start_next() {
  if (busy_ || paused_) return;
  std::uint32_t slot = kNoSlot;
  if (!control_queue_.empty()) {
    slot = pop(control_queue_);
    --control_queued_;
  } else if (!ring_.empty()) {
    // Round-robin over flows with queued bulk messages: serve the front
    // flow once, then send it to the back if it still has messages.
    ActiveFlow active = ring_.pop_front();
    slot = pop(active.queue);
    --bulk_queued_;
    if (!active.queue.empty()) ring_.push_back(active);
  } else {
    return;
  }
  Slot& next = slots_[slot];
  current_size_ = next.size;
  current_ = std::move(next.on_delivered);
  next.next = free_slots_;
  free_slots_ = slot;

  queued_bytes_ -= current_size_;
  busy_ = true;
  busy_since_ = sim_.now();
  // Serialization completes after the transmit time; the message then
  // propagates for `latency_` without occupying the link (cut-through for
  // the wire).
  sim_.post_after(capacity_.transmit_time(current_size_), "link.serialize",
                  [this] { finish_current(); });
}

void Link::finish_current() {
  busy_ = false;
  busy_accum_ += sim_.now() - busy_since_;
  bytes_transmitted_ += current_size_;
  ++messages_transmitted_;
  if (latency_ > 0) {
    sim_.post_after(latency_, "link.deliver", std::move(current_));
  } else {
    sim_.post_now("link.deliver", std::move(current_));
  }
  try_start_next();
}

SimDuration Link::busy_time() const {
  SimDuration t = busy_accum_;
  if (busy_) t += sim_.now() - busy_since_;
  return t;
}

}  // namespace smarth::net
