// The from-scratch oracle's programs (delete_test), shared with the
// planner's binding differential (planner_test): together they cover
// negation, recursion and lattice aggregates in the shapes the counting
// delete path and the flip variants handle.
#ifndef SECUREBLOX_TESTS_ORACLE_PROGRAMS_H_
#define SECUREBLOX_TESTS_ORACLE_PROGRAMS_H_

namespace secureblox::engine {

// Stratified negation in every shape the precise flip handles: two negated
// atoms (one predicate negated twice), `_` wildcards, a negated atom inside
// a recursive group, negation of a recursive predicate, and predicates
// read both positively and negated.
constexpr const char* kNegationProgram = R"(
  site(X) -> string(X).
  link(X, Y) -> string(X), string(Y).
  blocked(X, Y) -> string(X), string(Y).
  mark(X) -> string(X).
  open(X, Y) -> string(X), string(Y).
  stub(X) -> string(X).
  oneway(X, Y) -> string(X), string(Y).
  reach(X, Y) -> string(X), string(Y).
  cut(X, Y) -> string(X), string(Y).
  lone(X) -> string(X).
  open(X, Y) <- link(X, Y), !blocked(X, Y), !mark(Y).
  stub(X) <- mark(X), !link(X, _).
  oneway(X, Y) <- link(X, Y), !link(Y, X), !blocked(Y, X), !blocked(X, Y).
  reach(X, Y) <- open(X, Y).
  reach(X, Y) <- reach(X, Z), link(Z, Y), !blocked(Z, Y).
  cut(X, Y) <- site(X), site(Y), !reach(X, Y), !mark(X).
  lone(X) <- site(X), !reach(X, _).
)";

// Recursion in every shape counting retracts through: a closure whose
// links form cycles (reach), an exit rule and a recursive rule sharing a
// head (grow), mutual recursion (p/q), and positive and negated readers
// downstream of the recursive predicates (both, far, lone).
constexpr const char* kRecursiveProgram = R"(
  site(X) -> string(X).
  link(X, Y) -> string(X), string(Y).
  seed(X, Y) -> string(X), string(Y).
  reach(X, Y) -> string(X), string(Y).
  grow(X, Y) -> string(X), string(Y).
  p(X, Y) -> string(X), string(Y).
  q(X, Y) -> string(X), string(Y).
  both(X, Y) -> string(X), string(Y).
  far(X, Y) -> string(X), string(Y).
  lone(X) -> string(X).
  reach(X, Y) <- link(X, Y).
  reach(X, Y) <- reach(X, Z), link(Z, Y).
  grow(X, Y) <- seed(X, Y).
  grow(X, Y) <- grow(X, Z), link(Z, Y).
  p(X, Y) <- seed(X, Y).
  p(X, Y) <- q(X, Z), link(Z, Y).
  q(X, Y) <- p(X, Z), link(Z, Y).
  both(X, Y) <- p(X, Y), q(X, Y).
  far(X, Y) <- grow(X, Y), !reach(X, Y).
  lone(X) <- site(X), !reach(X, _).
)";

// A lattice aggregate in a recursive group (shortest path) with a counted
// reader downstream of it.
constexpr const char* kLatticeProgram = R"(
  site(X) -> string(X).
  link(X, Y, C) -> string(X), string(Y), int(C).
  cost(X, Y, C) -> string(X), string(Y), int(C).
  bestcost[X, Y] = C -> string(X), string(Y), int(C).
  near(X, Y) -> string(X), string(Y).
  cost(X, Y, C) <- link(X, Y, C).
  cost(X, Y, C1 + C2) <- bestcost[X, Z] = C1, link(Z, Y, C2).
  bestcost[X, Y] = C <- agg<< C = min(Cx) >> cost(X, Y, Cx).
  near(X, Y) <- bestcost[X, Y] = C, C < 3.
)";

// A recursive group whose last rule has a head existential (an entity
// created per instantiation, as path-vector's `extend` creates `pathvar`
// entities; delete_test only): its variants enumerate on the coordinating
// thread, and a delete can erase a `q` tuple through the second rule in
// the same round in which `s` loses the instantiation that read it.
constexpr const char* kExistentialProgram = R"(
  site(X) -> string(X).
  tag(T) -> .
  e(X) -> string(X).
  f(X) -> string(X).
  g(X, Y) -> string(X), string(Y).
  q(X) -> string(X).
  s(X, T) -> string(X), tag(T).
  q(X) <- e(X).
  q(Y) <- s(X, _), g(X, Y), f(Y).
  s(X, T) <- q(X), f(X).
)";

}  // namespace secureblox::engine

#endif  // SECUREBLOX_TESTS_ORACLE_PROGRAMS_H_
