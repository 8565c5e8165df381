// topsload is the repository's benchmark. It is a module of its own so the
// benchmark has its own build file; the replace directive points at the
// checkout it sits in, and the netclus/... module path keeps the parent's
// internal packages importable (the ladder times their public functions).
module netclus/cmd/topsload

go 1.24

require netclus v0.0.0

replace netclus => ../..
