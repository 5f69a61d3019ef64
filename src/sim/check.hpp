#pragma once

#include <cstdio>
#include <cstdlib>

// PCM_CHECK: an invariant check that stays active in Release builds.
//
// The bench binaries are compiled with NDEBUG, which silently strips
// assert() — so a bounds bug in, say, Mailbox::deliver would corrupt memory
// in exactly the configuration used to produce the paper's figures.
// Headers (which get inlined into Release translation units) therefore use
// PCM_CHECK instead of assert; pcm-lint enforces this. The cost is one
// predictable branch, which is negligible next to the simulation work behind
// every call site.

namespace pcm::sim::detail {

// Called only from the PCM_CHECK macro below, which pcm-lint does not
// expand.
[[noreturn]] inline void pcm_check_failed(const char* expr, const char* file,
                                          int line) {  // pcm-lint:allow(unreachable)
  std::fprintf(stderr, "PCM_CHECK failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

}  // namespace pcm::sim::detail

#define PCM_CHECK(expr)                                                 \
  ((expr) ? static_cast<void>(0)                                        \
          : ::pcm::sim::detail::pcm_check_failed(#expr, __FILE__, __LINE__))
