#include "core/bound_heap.h"

namespace nc {

void LazyBoundHeap::Push(ObjectId object, Score bound) {
  PushLazy(Entry{bound, object});
}

void LazyBoundHeap::PushLazy(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Below);
}

void LazyBoundHeap::Hold(const Entry& e, size_t k) {
  held_.insert(std::upper_bound(held_.begin(), held_.end(), e, Above), e);
  if (held_.size() > k) {
    PushLazy(held_.back());
    held_.pop_back();
  }
}

}  // namespace nc
