#ifndef L2R_COMMON_MMAP_FILE_H_
#define L2R_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace l2r {

/// A whole file mapped read-only into the address space. On POSIX this is
/// mmap(PROT_READ, MAP_SHARED), so any number of processes opening the
/// same file share one physical copy of the pages; on platforms without
/// mmap (or if the map call fails) the file is read into a private heap
/// buffer instead — same interface, no sharing. Move-only; unmaps on
/// destruction.
class MappedFile {
 public:
  /// Maps `path` read-only. IOError when the file is missing/unreadable.
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void Reset();

  void* mapped_ = nullptr;  ///< mmap base, or null for the heap fallback
  std::vector<uint8_t> fallback_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace l2r

#endif  // L2R_COMMON_MMAP_FILE_H_
