// A FIFO over a power-of-two circular buffer that never shrinks.
//
// std::deque allocates and frees a chunk every few elements as a queue
// cycles through it; the link and disk queues cycle millions of times per
// run. RingQueue grows to the peak backlog once and then recycles the same
// storage, so steady-state push/pop never touches the heap. Popped slots are
// left moved-from (a moved-from SmallFn is empty, so no captured state
// lingers).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace smarth::sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th element from the front (0 = front).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  /// Precondition: !empty().
  T& front() { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes and returns the front element. Precondition: !empty().
  T pop_front() {
    T out = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return out;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smarth::sim
