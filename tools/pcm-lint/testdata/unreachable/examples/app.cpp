// Fixture: the program root. The unreachable rule walks the call graph from
// this main; a tree without one stays silent.
namespace fixture {
int run_sweep();
}  // namespace fixture

int main() { return fixture::run_sweep(); }
