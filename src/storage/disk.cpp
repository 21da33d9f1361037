#include "storage/disk.hpp"

#include "common/check.hpp"

namespace smarth::storage {

namespace {
/// Rotational media read somewhat faster than they write.
constexpr double kDefaultReadRatio = 1.2;
}  // namespace

DiskDevice::DiskDevice(sim::Simulation& sim, std::string name,
                       Bandwidth write_bandwidth, SimDuration per_op_overhead)
    : sim_(sim), name_(std::move(name)), write_bandwidth_(write_bandwidth),
      per_op_overhead_(per_op_overhead) {
  SMARTH_CHECK(per_op_overhead_ >= 0);
}

Bandwidth DiskDevice::read_bandwidth() const {
  return Bandwidth::bits_per_second(write_bandwidth_.bits_per_second() *
                                    kDefaultReadRatio);
}

SimDuration DiskDevice::service_time(Bytes size) const {
  return per_op_overhead_ + write_bandwidth_.transmit_time(size);
}

void DiskDevice::write(Bytes size, WriteCallback on_done) {
  enqueue(size, /*ops=*/1, /*is_read=*/false, std::move(on_done));
}

void DiskDevice::write(Bytes size, std::uint64_t ops, WriteCallback on_done) {
  enqueue(size, ops, /*is_read=*/false, std::move(on_done));
}

void DiskDevice::read(Bytes size, WriteCallback on_done) {
  enqueue(size, /*ops=*/1, /*is_read=*/true, std::move(on_done));
}

void DiskDevice::read(Bytes size, std::uint64_t ops, WriteCallback on_done) {
  enqueue(size, ops, /*is_read=*/true, std::move(on_done));
}

void DiskDevice::enqueue(Bytes size, std::uint64_t ops, bool is_read,
                         WriteCallback&& on_done) {
  SMARTH_CHECK_MSG(size >= 0, "negative op size on " << name_);
  SMARTH_CHECK(ops >= 1);
  SMARTH_CHECK(static_cast<bool>(on_done));
  queue_.push_back(Pending{size, ops, is_read, std::move(on_done)});
  if (!busy_) start_next();
}

void DiskDevice::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  current_ = queue_.pop_front();
  busy_ = true;
  busy_since_ = sim_.now();
  // A coalesced request (ops > 1) pays the per-op overhead once per logical
  // operation so block-fidelity runs charge the same seek/syscall budget a
  // packet-granularity run would.
  const SimDuration per_op =
      static_cast<SimDuration>(current_.ops) * per_op_overhead_;
  const SimDuration service =
      per_op + (current_.is_read ? read_bandwidth() : write_bandwidth_)
                   .transmit_time(current_.size);
  sim_.post_after(service, "disk.io", [this] { finish_current(); });
}

void DiskDevice::finish_current() {
  busy_accum_ += sim_.now() - busy_since_;
  busy_ = false;
  if (current_.is_read) {
    bytes_read_ += current_.size;
  } else {
    bytes_written_ += current_.size;
  }
  ops_completed_ += current_.ops;
  // The callback may enqueue and start the next op, overwriting current_.
  WriteCallback done = std::move(current_.on_done);
  done();
  if (!busy_) start_next();
}

SimDuration DiskDevice::busy_time() const {
  SimDuration t = busy_accum_;
  if (busy_) t += sim_.now() - busy_since_;
  return t;
}

}  // namespace smarth::storage
