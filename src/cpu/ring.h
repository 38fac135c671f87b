// Fixed-capacity FIFO over a circular buffer, shared by the RUU, the LSQ and
// the fetch queue: push at the tail, pop at the head, index from the oldest
// element. Wrap-around is a conditional subtract, not a modulo.
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace icr::cpu {

template <typename T>
class Ring {
 public:
  explicit Ring(std::uint32_t capacity)
      : slots_(capacity), capacity_(capacity) {
    ICR_CHECK(capacity > 0);
  }

  [[nodiscard]] bool full() const noexcept { return count_ == capacity_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  // Appends `value` at the tail; requires !full().
  T& push(const T& value) {
    ICR_CHECK(!full());
    T& slot = slots_[wrap(head_ + count_)];
    ++count_;
    slot = value;
    return slot;
  }

  // Oldest element; requires !empty().
  [[nodiscard]] T& front() noexcept {
    ICR_DCHECK(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    ICR_DCHECK(!empty());
    return slots_[head_];
  }

  // Removes the oldest element; requires !empty().
  void pop() noexcept {
    ICR_DCHECK(!empty());
    head_ = wrap(head_ + 1);
    --count_;
  }

  // i-th oldest element, i < size().
  [[nodiscard]] T& operator[](std::uint32_t i) noexcept {
    ICR_DCHECK(i < count_);
    return slots_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& operator[](std::uint32_t i) const noexcept {
    ICR_DCHECK(i < count_);
    return slots_[wrap(head_ + i)];
  }

 private:
  // Maps [0, 2 * capacity) onto a slot index.
  [[nodiscard]] std::uint32_t wrap(std::uint32_t i) const noexcept {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::vector<T> slots_;
  std::uint32_t capacity_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace icr::cpu
