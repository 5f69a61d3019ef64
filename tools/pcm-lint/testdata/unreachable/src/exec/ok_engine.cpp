// Fixture: an exec-tree function on the root's path. The taint graph leaves
// src/exec/ out; the unreachable rule must link through it.
namespace fixture {

int apply(int (*fn)(int), int x);
int scale(int x);
template <typename T>
T widen(T x);
int count();

int run_sweep() { return apply(&scale, 3) + widen<int>(2) + count(); }

}  // namespace fixture
