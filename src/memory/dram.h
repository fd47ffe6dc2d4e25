/**
 * @file
 * Zero-on-demand DRAM backing for guest memory.
 *
 * A freshly created VM's memory is all zeros, but value-initializing a
 * ByteVec pays an eager memset over the whole guest (130+ ms for a
 * 256 MiB guest — more than an entire warm launch). Real VMMs mmap
 * anonymous memory instead and let the kernel hand out zero pages on
 * first touch; DramBuffer does the same, with a ByteVec fallback on
 * platforms without mmap. Reads of never-written pages hit the shared
 * zero page and allocate nothing.
 *
 * Both backings start all zero, which is what GuestMemory's
 * written-page map relies on: a page it never marked is skipped by
 * template capture without being read, because it must still be zero.
 */
#ifndef SEVF_MEMORY_DRAM_H_
#define SEVF_MEMORY_DRAM_H_

#include "base/types.h"

namespace sevf::memory {

/**
 * A fixed-size, zero-initialized byte buffer with vector-like
 * accessors (data/size/begin/end, pointer iterators) so it drops into
 * code written against ByteVec. Not resizable; not copyable.
 */
class DramBuffer
{
  public:
    explicit DramBuffer(u64 size);
    ~DramBuffer();

    DramBuffer(const DramBuffer &) = delete;
    DramBuffer &operator=(const DramBuffer &) = delete;

    u8 *data() { return data_; }
    const u8 *data() const { return data_; }
    u64 size() const { return size_; }

    u8 *begin() { return data_; }
    u8 *end() { return data_ + size_; }
    const u8 *begin() const { return data_; }
    const u8 *end() const { return data_ + size_; }

  private:
    u8 *data_ = nullptr;
    u64 size_ = 0;
    bool mapped_ = false; //!< mmap'd (munmap on destruction) vs fallback
    ByteVec fallback_;    //!< used when mmap is unavailable/fails
};

} // namespace sevf::memory

#endif // SEVF_MEMORY_DRAM_H_
