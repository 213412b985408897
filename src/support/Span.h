//===- support/Span.h - Non-owning contiguous range -------------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal non-owning view over a contiguous range, used by the frozen
/// index accessors: CompletionIndexes::freeze() builds the member edges
/// and method-index unions as CSR arrays, and per-type lookups return a
/// Span into that shared flat storage. Unlike std::span it asserts on
/// out-of-range element access, matching the rest of the support layer.
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SUPPORT_SPAN_H
#define PETAL_SUPPORT_SPAN_H

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace petal {

/// A pointer + length view of immutable contiguous elements. Cheap to copy;
/// never owns. The viewed storage must outlive the span (frozen index
/// storage lives as long as the index, which satisfies every petal use).
template <typename T> class Span {
public:
  Span() = default;
  Span(const T *Data, size_t Size) : Data_(Data), Size_(Size) {}
  /// Views a whole vector, any allocator (implicit: lets un-frozen
  /// accessors that still keep per-type vectors return the same type as
  /// frozen ones, and lets arena-backed vectors pass where a Span is
  /// expected).
  template <typename Alloc>
  Span(const std::vector<std::remove_cv_t<T>, Alloc> &V)
      : Data_(V.data()), Size_(V.size()) {}

  const T *begin() const { return Data_; }
  const T *end() const { return Data_ + Size_; }
  const T *data() const { return Data_; }
  size_t size() const { return Size_; }
  bool empty() const { return Size_ == 0; }

  const T &operator[](size_t I) const {
    assert(I < Size_ && "Span index out of range");
    return Data_[I];
  }
  const T &front() const { return (*this)[0]; }
  const T &back() const { return (*this)[Size_ - 1]; }

  Span subspan(size_t Offset, size_t Count) const {
    assert(Offset + Count <= Size_ && "Span subspan out of range");
    return Span(Data_ + Offset, Count);
  }

private:
  const T *Data_ = nullptr;
  size_t Size_ = 0;
};

} // namespace petal

#endif // PETAL_SUPPORT_SPAN_H
