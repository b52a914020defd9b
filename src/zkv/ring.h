// Ring<T>: a FIFO over a power-of-two array that keeps its capacity, so
// a warm queue pushes and pops without touching the heap. Growing moves
// the elements: hold an index or a key across a suspension, never a
// reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace zstor::zkv {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Element i counted from the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  T& front() { return buf_[head_]; }

  void push_back(const T& v) {
    if (size_ == buf_.size()) Grow();
    (*this)[size_++] = v;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    std::vector<T> next(std::max<std::size_t>(8, buf_.size() * 2));
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity: zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace zstor::zkv
