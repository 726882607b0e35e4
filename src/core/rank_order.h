// The library-wide rank order for (bound, object) pairs.
//
// Every component that ranks objects must break ties identically, or the
// algorithms drift apart on tie-heavy data (Section 3.1 assumes ties
// away; we make them deterministic instead): Theorem 1's ranked pool
// (core/bound_heap.h, which NCEngine, the parallel executor, Framework
// TG, Upper, MPro and NRA's exact mode all halt on), the certificate
// builder, the theta collector, the lower-bound rankings of classic NRA
// and Stream-Combine, and the brute-force oracle. The rule:
//   1. higher bound ranks first;
//   2. at equal bounds, any seen object ranks above the virtual unseen
//      sentinel (the paper's Figure 10: a hit object immediately
//      surfaces above `unseen`);
//   3. among seen objects, higher ObjectId ranks first.

#ifndef NC_CORE_RANK_ORDER_H_
#define NC_CORE_RANK_ORDER_H_

#include "common/score.h"

namespace nc {

// True when (bound_a, a) ranks strictly above (bound_b, b).
inline bool RanksAbove(Score bound_a, ObjectId a, Score bound_b, ObjectId b) {
  if (bound_a != bound_b) return bound_a > bound_b;
  if (a == kUnseenObject) return false;
  if (b == kUnseenObject) return true;
  return a > b;
}

}  // namespace nc

#endif  // NC_CORE_RANK_ORDER_H_
