// Fixture: free functions no root reaches. Lines 6, 8 and 11 fire; the
// suppressed function and the member function stay silent.
namespace fixture {

// Called only from orphan, so dead as well.
int helper_of_orphan() { return 3; }  // line 6: flagged

int orphan(int x) { return x + helper_of_orphan(); }  // line 8: flagged

template <typename T>
T orphan_template(T x) {  // line 11: flagged
  return x;
}

int kept_for_tests() { return 4; }  // pcm-lint:allow(unreachable)

struct Dead {
  int member() const { return orphan(1); }  // members are out of scope
};

}  // namespace fixture
