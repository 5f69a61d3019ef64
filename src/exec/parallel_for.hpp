#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

// parallel_for: fan an index space [0, n) out across threads that each take
// the next index from one shared atomic counter. The engine's determinism
// contract lives one level up — every cell is self-contained (own machine,
// own seed) — so this only promises that fn(i) runs exactly once for every
// i, and that every thread has been joined when it returns: the shard
// supervisor relies on that to fork() from a single-threaded process.

namespace pcm::exec {

/// Run fn(i) for every i in [0, n) on min(jobs, n) threads; jobs <= 0 means
/// one per hardware thread, and jobs == 1 is the plain serial loop (no
/// thread started). One throwing fn(i) never disturbs the others: slot i of
/// the result holds the exception fn(i) escaped with (null on success) —
/// indexed, not completion-ordered, so the result is schedule-independent.
[[nodiscard]] std::vector<std::exception_ptr> parallel_for(
    int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace pcm::exec
