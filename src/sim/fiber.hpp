// Stackful fibers for simulated processes.
//
// A Fiber is a coroutine with its own stack: resume() transfers control from
// the host (the event loop) into the fiber, yield() transfers back.  Both are
// plain user-space context switches — no mutex, no condvar, no kernel entry —
// which is what makes 64–256-rank simulations feasible (a thread-baton
// suspend/resume costs two kernel context switches, ~5 µs).
//
// On x86-64 the switch is a hand-rolled callee-saved-register swap
// (src/sim/fiber.cpp, ~10 ns round trip).  ucontext's swapcontext would work
// too but performs an rt_sigprocmask syscall per switch (~430 ns round trip —
// measured); it remains the portable fallback on other architectures and can
// be forced with -DIB12X_FIBER_UCONTEXT for debugging.
//
// Contract: the body must not let an exception escape (catch everything and
// record it — unwinding across a context switch is undefined), and a started
// fiber must be driven to completion before destruction (the owner resumes
// it with a kill flag; see sim::Process).
//
// Under AddressSanitizer the switches are annotated with the sanitizer fiber
// API so ASan tracks the active stack region correctly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#if defined(__x86_64__) && defined(__ELF__) && !defined(IB12X_FIBER_UCONTEXT)
#define IB12X_FIBER_FAST_SWITCH 1
#else
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define IB12X_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IB12X_ASAN_FIBERS 1
#endif
#endif

#ifdef IB12X_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef IB12X_FIBER_FAST_SWITCH
extern "C" {
/// Saves the callee-saved registers + rsp through `save_sp`, switches to
/// `restore_sp`, restores and returns on that stack (src/sim/fiber.cpp).
void ib12x_ctx_switch(void** save_sp, void* restore_sp);
/// First-activation thunk a seeded stack "returns" into.
void ib12x_ctx_entry();
}
#endif

namespace ib12x::sim {

class Fiber {
 public:
  /// Default stack size per fiber.  Process bodies keep bulk data on the
  /// heap; 512 KiB leaves ample headroom for NAS kernels and deep call
  /// chains.  The pages are only committed when touched.
  static constexpr std::size_t kDefaultStackBytes = 512 * 1024;

  explicit Fiber(std::function<void()> body, std::size_t stack_bytes = kDefaultStackBytes)
      : body_(std::move(body)),
        stack_(new unsigned char[stack_bytes]),  // default-init: pages stay untouched
        stack_bytes_(stack_bytes) {}

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool finished() const { return finished_; }

  /// Host side: runs the fiber until it yields or its body returns.
  void resume() {
    if (finished_) throw std::logic_error("Fiber::resume: fiber already finished");
    if (!started_) {
      started_ = true;
      seed_stack();
    }
#ifdef IB12X_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&host_fake_stack_, stack_.get(), stack_bytes_);
#endif
#ifdef IB12X_FIBER_FAST_SWITCH
    ib12x_ctx_switch(&host_sp_, fiber_sp_);
#else
    swapcontext(&host_, &ctx_);
#endif
#ifdef IB12X_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(host_fake_stack_, nullptr, nullptr);
#endif
  }

  /// Fiber side: suspends, returning control to the last resume() call.
  void yield() {
#ifdef IB12X_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&fiber_fake_stack_, host_stack_bottom_, host_stack_size_);
#endif
#ifdef IB12X_FIBER_FAST_SWITCH
    ib12x_ctx_switch(&fiber_sp_, host_sp_);
#else
    swapcontext(&ctx_, &host_);
#endif
#ifdef IB12X_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fiber_fake_stack_, &host_stack_bottom_, &host_stack_size_);
#endif
  }

  /// First-activation entry, reached on the fiber's own stack.  Public only
  /// for the extern-"C" trampoline; never call directly.
  void run_body_entry() { run_body(); }

 private:
#ifdef IB12X_FIBER_FAST_SWITCH
  /// Builds the initial stack frame ib12x_ctx_switch will "return" through:
  /// the six callee-saved register slots (this parked in r12) topped by the
  /// entry thunk's address.
  void seed_stack() {
    auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stack_bytes_);
    auto** sp = reinterpret_cast<void**>(top & ~static_cast<std::uintptr_t>(15));
    *--sp = nullptr;                                     // spacer keeps entry aligned
    *--sp = reinterpret_cast<void*>(&ib12x_ctx_entry);   // retq target
    *--sp = nullptr;                                     // rbp
    *--sp = nullptr;                                     // rbx
    *--sp = this;                                        // r12 → entry thunk's rdi
    *--sp = nullptr;                                     // r13
    *--sp = nullptr;                                     // r14
    *--sp = nullptr;                                     // r15
    fiber_sp_ = sp;
  }
#else
  void seed_stack() {
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = nullptr;  // the body's tail swaps back explicitly
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned int>(self >> 32),
                static_cast<unsigned int>(self & 0xffffffffu));
  }

  static void trampoline(unsigned int hi, unsigned int lo) {
    auto* self = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                          static_cast<std::uintptr_t>(lo));
    self->run_body();
  }
#endif

  void run_body() {
#ifdef IB12X_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(nullptr, &host_stack_bottom_, &host_stack_size_);
#endif
    body_();  // must not throw (see class contract)
    finished_ = true;
#ifdef IB12X_ASAN_FIBERS
    // Exiting for good: tell ASan this fake stack can be destroyed.
    __sanitizer_start_switch_fiber(nullptr, host_stack_bottom_, host_stack_size_);
#endif
#ifdef IB12X_FIBER_FAST_SWITCH
    ib12x_ctx_switch(&fiber_sp_, host_sp_);  // never returns
#else
    swapcontext(&ctx_, &host_);  // never returns
#endif
  }

  std::function<void()> body_;
  std::unique_ptr<unsigned char[]> stack_;
  std::size_t stack_bytes_;
#ifdef IB12X_FIBER_FAST_SWITCH
  void* fiber_sp_ = nullptr;
  void* host_sp_ = nullptr;
#else
  ucontext_t ctx_{};
  ucontext_t host_{};
#endif
  bool started_ = false;
  bool finished_ = false;
#ifdef IB12X_ASAN_FIBERS
  void* host_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_size_ = 0;
#endif
};

}  // namespace ib12x::sim
