// Fixture: free functions the root reaches, each by a different kind of
// mention. None may fire.
namespace fixture {

int apply(int (*fn)(int), int x) { return fn(x); }  // called

int scale(int x) { return 2 * x; }  // passed as a function pointer

template <typename T>
T widen(T x) {  // called with explicit template arguments
  return x;
}

int seed() { return 1; }  // called only from a member-init list

struct Counter {
  Counter() : n(seed()) {}
  int n;
};

int count() {  // constructs a Counter by declaration
  Counter c;
  return c.n;
}

}  // namespace fixture
