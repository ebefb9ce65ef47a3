#ifndef LSHAP_COMMON_FILEIO_H_
#define LSHAP_COMMON_FILEIO_H_

#include <string>

#include "common/status.h"

namespace lshap {

// Crash-safe file replacement. Every persistent artifact (text corpus,
// packed shards, manifest, model file) is written to TempWritePath(path)
// and then renamed over `path` in one metadata operation, so a process
// killed mid-write can never leave a truncated file under the final name —
// readers either see the complete old version or the complete new one.
// Name/size checks are therefore never fooled by a half-written file; the
// checksum/fingerprint validation layers only ever have to catch genuine
// corruption, not interrupted writes.
//
// The temp path is deterministic (`<path>.tmp`), so a stale temp file left
// by a crashed run is simply overwritten by the next save.

// The sibling temp path writers stream into before committing.
std::string TempWritePath(const std::string& path);

// Renames TempWritePath(path) onto `path` (atomic on POSIX when both live
// on the same filesystem, which siblings always do).
Status CommitTempFile(const std::string& path);

// Convenience for buffered writers: writes `contents` to the temp path,
// flushes, and commits. Any failure leaves `path` untouched.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

// Reads a whole file: kNotFound when it cannot be opened, kInternal on a
// short read.
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace lshap

#endif  // LSHAP_COMMON_FILEIO_H_
