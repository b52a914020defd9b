#include "sim/noise.h"

#include <pthread.h>

#include <condition_variable>
#include <mutex>
#include <new>
#include <system_error>
#include <thread>

#include "sim/check.h"

namespace zstor::sim {

/// The process's one noise helper: a FIFO of queued chunks (an intrusive
/// list, so queueing allocates nothing) and the thread that computes
/// them. It is created on the first draw and never destroyed, so streams
/// owned by static objects can still withdraw their chunks during static
/// destruction.
class NoiseHelper {
 public:
  using Chunk = NoiseStream::Chunk;

  static NoiseHelper& Get() {
    static NoiseHelper* const helper = new NoiseHelper;
    return *helper;
  }

  /// Queues `c`; starts the thread if need be. A sleeping helper is
  /// woken once kWakeDepth chunks wait, so one wake-up serves several
  /// chunks while the owners still hold chunks computed earlier.
  void Submit(Chunk& c) {
    std::lock_guard<std::mutex> lock(mu_);
    c.state.store(Chunk::kQueued, std::memory_order_relaxed);
    c.prev = tail_;
    c.next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = &c;
    tail_ = &c;
    ++queued_;
    if (!started_) Start();
    if (sleeping_ && queued_ >= kWakeDepth) {
      sleeping_ = false;
      work_.notify_one();
    }
  }

  /// Takes `c` back from the queue if the helper has not started it.
  void Withdraw(Chunk& c) {
    if (c.state.load(std::memory_order_acquire) != Chunk::kQueued) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (c.state.load(std::memory_order_relaxed) != Chunk::kQueued) return;
    Unlink(c);
    c.state.store(Chunk::kOwner, std::memory_order_relaxed);
  }

 private:
  NoiseHelper() {
    // A fork copies the queue but not the thread. Quiesce the helper
    // between chunks around it, so no chunk is left half computed, and
    // let the child start a helper of its own on its next submission.
    pthread_atfork([] { Get().BeforeFork(); }, [] { Get().AfterFork(); },
                   [] { Get().InForkChild(); });
  }

  void Start() {
    try {
      std::thread([this] { Run(); }).detach();
      started_ = true;
    } catch (const std::system_error&) {
      // No thread to be had: the queue waits, and every owner takes its
      // chunks back as it reaches them. Try again on the next submission.
    }
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      while (head_ == nullptr || pausing_) {
        sleeping_ = true;
        work_.wait(lock);
      }
      sleeping_ = false;
      Chunk& c = *head_;
      Unlink(c);
      c.state.store(Chunk::kBusy, std::memory_order_relaxed);
      busy_ = true;
      lock.unlock();
      c.stream->Compute(c);
      // The last touch of `c`: its stream may refill or free it from here.
      c.state.store(Chunk::kDone, std::memory_order_release);
      lock.lock();
      busy_ = false;
      if (pausing_) idle_.notify_all();
    }
  }

  void Unlink(Chunk& c) {
    --queued_;
    (c.prev != nullptr ? c.prev->next : head_) = c.next;
    (c.next != nullptr ? c.next->prev : tail_) = c.prev;
    c.prev = c.next = nullptr;
  }

  void BeforeFork() {
    mu_.lock();
    pausing_ = true;
    while (busy_) {
      std::unique_lock<std::mutex> lock(mu_, std::adopt_lock);
      idle_.wait(lock);
      lock.release();
    }
  }
  void AfterFork() {
    pausing_ = false;
    if (queued_ >= kWakeDepth && sleeping_) {
      sleeping_ = false;
      work_.notify_one();
    }
    mu_.unlock();
  }
  void InForkChild() {
    // The child's only thread holds mu_, and the parent's helper may have
    // been waiting on work_: start both afresh.
    new (&mu_) std::mutex;
    new (&work_) std::condition_variable;
    new (&idle_) std::condition_variable;
    pausing_ = sleeping_ = started_ = false;
  }

  std::mutex mu_;
  std::condition_variable work_;  // the helper waits for a chunk
  std::condition_variable idle_;  // a fork waits for the helper's chunk
  static constexpr std::size_t kWakeDepth = 2;
  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  std::size_t queued_ = 0;
  bool started_ = false;
  bool sleeping_ = false;
  bool busy_ = false;
  bool pausing_ = false;
};

NoiseStream::NoiseStream(std::uint64_t seed,
                         std::initializer_list<double> sigmas)
    : rng_(seed), own_(seed), n_(sigmas.size()) {
  ZSTOR_CHECK(n_ > 0 && n_ <= kMaxSigmas);
  std::size_t k = 0;
  for (double s : sigmas) sigma_[k++] = s;
  for (Chunk& c : chunks_) c.stream = this;
}

NoiseStream::~NoiseStream() {
  if (cur_ == nullptr) return;
  NoiseHelper& helper = NoiseHelper::Get();
  for (Chunk& c : chunks_) helper.Withdraw(c);
  for (Chunk& c : chunks_) {
    while (c.state.load(std::memory_order_acquire) == Chunk::kBusy) {
      std::this_thread::yield();
    }
  }
}

void NoiseStream::Assign(Chunk& c) {
  c.rng = rng_;
  for (std::size_t i = 0; i < kChunkDraws; ++i) rng_.NormalUniforms();
}

void NoiseStream::Compute(Chunk& c) const {
  Rng rng = c.rng;
  for (std::size_t i = 0; i < kChunkDraws; ++i) {
    const double z = Rng::BoxMuller(rng.NormalUniforms());
    for (std::size_t k = 0; k < n_; ++k) {
      // exp(0 * z) is exactly 1 for every finite z.
      c.mult[i * n_ + k] = sigma_[k] == 0.0 ? 1.0 : std::exp(sigma_[k] * z);
    }
  }
}

void NoiseStream::NextChunk() {
  NoiseHelper& helper = NoiseHelper::Get();
  if (cur_ == nullptr) {
    // First draw: the owner computes chunk 0 itself, the rest queue.
    for (Chunk& c : chunks_) {
      Assign(c);
      if (&c == chunks_) {
        c.state.store(Chunk::kOwner, std::memory_order_relaxed);
      } else {
        helper.Submit(c);
      }
    }
    cur_ = &chunks_[0];
  } else {
    // The helper may still be writing a chunk the owner read through to
    // its end on its own: the one wait, and only to hand it back.
    while (cur_->state.load(std::memory_order_acquire) == Chunk::kBusy) {
      std::this_thread::yield();
    }
    Assign(*cur_);
    helper.Submit(*cur_);
    cur_ = cur_ == &chunks_[kChunks - 1] ? &chunks_[0] : cur_ + 1;
    helper.Withdraw(*cur_);
  }
  next_ = 0;
  ready_ = cur_->state.load(std::memory_order_acquire) == Chunk::kDone;
  if (ready_) {
    ++chunks_ahead_;
  } else {
    own_ = cur_->rng;
  }
}

}  // namespace zstor::sim
