// A growable circular buffer for queues that are pushed and popped at a
// steady rate (a connection's in-flight records, a stream's send queue).
//
// Storage is a power-of-two array of value-initialized slots indexed from a
// moving head. It is reserved only on the first push, doubles when full, and
// keeps its capacity across clear(), so a warm ring allocates nothing;
// release() gives the storage back. A popped or cleared slot is reset to T{},
// so the ring never holds on to what its elements own.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace pan::util {

template <typename T>
class Ring {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The i-th element from the front, i < size().
  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    slots_[(head_ + size_) & (capacity_ - 1)] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    if (size_ == capacity_) grow();
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    slots_[head_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Empties the ring, keeping its storage.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  /// Empties the ring and frees its storage.
  void release() {
    slots_.reset();
    capacity_ = head_ = size_ = 0;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    auto slots = std::make_unique<T[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) slots[i] = std::move((*this)[i]);
    slots_ = std::move(slots);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pan::util
