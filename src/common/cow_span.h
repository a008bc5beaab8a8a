#ifndef L2R_COMMON_COW_SPAN_H_
#define L2R_COMMON_COW_SPAN_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace l2r {

/// A contiguous array that either owns its storage (a plain vector) or is
/// a read-only view into memory owned elsewhere (e.g. a mmap'ed snapshot
/// image). Reads are uniform either way; the single mutation seam,
/// Mutable(), materializes a private owned copy on first use when the
/// array is a view — copy-on-write, so a process serving from a shared
/// read-only world image can still apply local weight updates without
/// touching the image.
///
/// Lifetime: a viewing CowSpan does not keep the underlying memory alive;
/// whoever creates the view must pin the backing storage for at least as
/// long (RoadNetwork carries a shared_ptr keepalive for its snapshot
/// mapping).
template <typename T>
class CowSpan {
 public:
  CowSpan() = default;

  /// Takes ownership of `v`.
  /*implicit*/ CowSpan(std::vector<T> v)
      : owned_(std::move(v)), data_(owned_.data()), size_(owned_.size()),
        is_owned_(true) {}

  /// A read-only view of [data, data + size); see the lifetime note above.
  static CowSpan View(const T* data, size_t size) {
    CowSpan s;
    s.data_ = data;
    s.size_ = size;
    s.is_owned_ = false;
    return s;
  }

  CowSpan(const CowSpan& o) { *this = o; }
  CowSpan& operator=(const CowSpan& o) {
    if (this == &o) return *this;
    owned_ = o.owned_;
    size_ = o.size_;
    is_owned_ = o.is_owned_;
    data_ = is_owned_ ? owned_.data() : o.data_;
    return *this;
  }
  CowSpan(CowSpan&& o) noexcept { *this = std::move(o); }
  CowSpan& operator=(CowSpan&& o) noexcept {
    if (this == &o) return *this;
    owned_ = std::move(o.owned_);
    size_ = o.size_;
    is_owned_ = o.is_owned_;
    data_ = is_owned_ ? owned_.data() : o.data_;
    o.data_ = nullptr;
    o.size_ = 0;
    o.is_owned_ = true;
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<const T> span() const { return {data_, size_}; }

  /// Mutable access; copies a viewed array into owned storage first.
  T* Mutable() {
    if (!is_owned_) {
      owned_.assign(data_, data_ + size_);
      data_ = owned_.data();
      is_owned_ = true;
    }
    return owned_.data();
  }

 private:
  std::vector<T> owned_;
  const T* data_ = nullptr;
  size_t size_ = 0;
  bool is_owned_ = true;
};

}  // namespace l2r

#endif  // L2R_COMMON_COW_SPAN_H_
