// MPI request objects.  A Request is a shared handle; the substrate holds
// its own reference while a transfer is in flight, so user code may drop the
// handle of an isend it never waits on (the standard allows completion to be
// inferred from other events).
//
// An endpoint makes its requests from a RequestPool: the record and its
// reference counts live in one block from a free list, so a request costs
// no malloc once the endpoint is warmed up.  The handle type is the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace ib12x::mvx {

struct Status {
  int source = -1;
  int tag = -1;
  std::int64_t bytes = 0;
};

struct RequestState {
  bool done = false;
  bool is_send = false;
  Status status;          ///< filled on receive completion
  sim::Time completed_at = 0;

  // -- internal bookkeeping (rendezvous) --
  const void* send_buf = nullptr;
  void* recv_buf = nullptr;
  std::int64_t bytes = 0;
  int peer = -1;
  int tag = -1;
  int ctx = 0;
  std::uint8_t kind = 0;        ///< CommKind, recorded by the marker at start
  int lane = -1;                ///< multi-lane rail pin (lane % nrails); -1 = policy decides
  int vci = 0;                  ///< virtual communication interface carrying this message
  std::uint64_t peer_cookie = 0;///< the other side's request cookie
};

using Request = std::shared_ptr<RequestState>;

/// An unpooled request (tests and one-off callers).
inline Request make_request() { return std::make_shared<RequestState>(); }

/// Per-endpoint free list of request blocks.  A block holds one request
/// record together with its shared_ptr reference counts; released blocks are
/// reused LIFO.  The free list stays alive while the pool or any request made
/// from it does, so a Request may outlive its endpoint.  Single-threaded,
/// like the model: requests are made and dropped on the simulator thread.
class RequestPool {
 public:
  RequestPool() : arena_(new Arena) {}
  ~RequestPool() { arena_->unref(); }
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  [[nodiscard]] Request make() {
    return std::allocate_shared<RequestState>(Alloc<RequestState>(arena_));
  }

 private:
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /// A block of `bytes`, which is the same for every call: allocate_shared
    /// allocates one type, shared_ptr's control block with the request in it.
    void* get(std::size_t bytes) {
      if (block_ == 0) block_ = bytes;
      if (bytes != block_) throw std::logic_error("RequestPool: one block size per pool");
      if (free_.empty()) return ::operator new(bytes);
      void* p = free_.back();
      free_.pop_back();
      return p;
    }
    void put(void* p) { free_.push_back(p); }
    void ref() { ++refs_; }
    // Out of line: inlined into allocate_shared's allocator copies, the
    // delete would trip GCC's use-after-free analysis on paths where the
    // count cannot reach zero.
    [[gnu::noinline]] void unref() {
      if (--refs_ == 0) delete this;
    }
    ~Arena() {
      for (void* p : free_) ::operator delete(p);
    }

   private:
    std::vector<void*> free_;
    std::size_t block_ = 0;
    std::size_t refs_ = 1;  ///< the owning RequestPool
  };

  /// The allocator allocate_shared stores in each control block.  Every copy
  /// holds a reference on the arena.
  template <typename T>
  class Alloc {
   public:
    using value_type = T;
    explicit Alloc(Arena* a) noexcept : arena_(a) { arena_->ref(); }
    Alloc(const Alloc& o) noexcept : Alloc(o.arena_) {}
    template <typename U>
    Alloc(const Alloc<U>& o) noexcept : Alloc(o.arena_) {}  // NOLINT: rebinding copy
    Alloc& operator=(const Alloc&) = delete;
    ~Alloc() { arena_->unref(); }

    T* allocate(std::size_t n) {
      static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      if (n != 1) throw std::bad_alloc();  // allocate_shared asks for one block
      return static_cast<T*>(arena_->get(sizeof(T)));
    }
    void deallocate(T* p, std::size_t) noexcept { arena_->put(p); }
    friend bool operator==(const Alloc& a, const Alloc& b) { return a.arena_ == b.arena_; }

   private:
    template <typename U>
    friend class Alloc;
    Arena* arena_;
  };

  Arena* arena_;
};

}  // namespace ib12x::mvx
