// Runtime invariant checking for the deterministic simulation layers.
//
// The simulator's claims (Theorem 4.1 bounds, figure reproductions) hold
// only while the fluid solver conserves bytes, event time never runs
// backwards, and the BSP/ASP accounting tiles training time exactly. These
// conservation laws are cheap to state and expensive to re-derive after a
// regression, so the hot layers assert them behind CYNTHIA_CHECK:
//
//   CYNTHIA_CHECK(cond, detail...)   evaluated only when invariant checking
//                                    is enabled at runtime; throws
//                                    CheckFailure on violation.
//   CYNTHIA_DCHECK(cond, detail...)  additionally compiled out entirely
//                                    unless the CYNTHIA_INVARIANTS CMake
//                                    option is ON (for per-event hot loops).
//
// Enabling. Three equivalent switches, most-specific wins:
//   * -DCYNTHIA_INVARIANTS=ON at configure time — checks default to ON for
//     every binary of that build (how the invariant CI job runs ctest);
//   * CYNTHIA_CHECK=1|0 in the environment — runtime override either way;
//   * util::set_invariants_enabled(true) — programmatic (cynthiactl --check).
//
// Checks must be read-only: a build with checks enabled must produce
// bit-identical results to one with checks off (tests/invariants_test.cpp
// verifies this). Never mutate simulation state inside a check expression.
#pragma once

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace cynthia::util {

/// Thrown by CYNTHIA_CHECK on an invariant violation. Derives from
/// std::logic_error: a failed conservation law is a bug in the simulator,
/// not a recoverable condition.
class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Whether CYNTHIA_CHECK conditions are evaluated. A process-wide relaxed
/// atomic, so every thread may read it; set it at startup (env/CLI).
bool invariants_enabled();
void set_invariants_enabled(bool enabled);

/// Builds the failure message and throws CheckFailure.
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& detail);

namespace detail {

inline std::string format_check_message() { return {}; }

template <class... Args>
std::string format_check_message(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace detail
}  // namespace cynthia::util

#define CYNTHIA_CHECK(cond, ...)                                            \
  do {                                                                      \
    if (::cynthia::util::invariants_enabled() && !(cond)) {                 \
      ::cynthia::util::check_failed(                                        \
          __FILE__, __LINE__, #cond,                                        \
          ::cynthia::util::detail::format_check_message(__VA_ARGS__));      \
    }                                                                       \
  } while (0)

#ifdef CYNTHIA_INVARIANTS
#define CYNTHIA_DCHECK(cond, ...) CYNTHIA_CHECK(cond, __VA_ARGS__)
#else
// sizeof keeps the operands syntactically checked (and silences unused
// warnings) without evaluating them.
#define CYNTHIA_DCHECK(cond, ...) \
  do {                            \
    (void)sizeof(!(cond));        \
  } while (0)
#endif

namespace cynthia::util {

/// The thread that constructed a single-owner instance (Provisioner and its
/// cache, MetricsRegistry, Tracer). Those types hold no locks: an instance
/// belongs to one thread, and each thread builds its own. check() enforces
/// that in CYNTHIA_INVARIANTS builds, where a call from another thread throws
/// CheckFailure; elsewhere it compiles to nothing.
class OwnerThread {
 public:
  void check([[maybe_unused]] const char* type) const {
    CYNTHIA_DCHECK(std::this_thread::get_id() == id_, type,
                   " is single-owner: called from thread ", std::this_thread::get_id(),
                   " but owned by thread ", id_);
  }

 private:
  std::thread::id id_ = std::this_thread::get_id();
};

}  // namespace cynthia::util
