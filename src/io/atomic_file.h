#ifndef SKYSCRAPER_IO_ATOMIC_FILE_H_
#define SKYSCRAPER_IO_ATOMIC_FILE_H_

#include <string>

#include "util/result.h"
#include "util/status.h"

namespace sky::io {

/// Writes `bytes` to `path` crash-consistently: the bytes land in a
/// temporary file in the same directory (`path` + ".tmp"), are flushed to
/// disk, and only then renamed over `path` — an atomic operation on POSIX
/// filesystems. A crash (or injected failure) at ANY point leaves either the
/// previous contents of `path` or the new ones, never a torn file; a failed
/// write removes the temporary and leaves `path` untouched.
///
/// kNotFound when the temporary cannot be created (missing directory, no
/// permission), kInternal for write/flush/rename failures.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Reads the whole file at `path` in one read sized from its length.
/// kNotFound when it cannot be opened, kInternal on a read error (a path
/// that cannot be sized, such as a pipe, or a file whose length changes
/// under the read); `what` names the file in both messages ("model file",
/// "checkpoint file", ...).
Result<std::string> ReadFileBytes(const std::string& path,
                                  const std::string& what);

/// Test-only failure injection for the write path: when set, the hook runs
/// after the temporary file is flushed and before the rename. A non-OK
/// return aborts the save (the temporary is removed, the target untouched) —
/// exactly the window a mid-save crash lands in. Pass nullptr to clear.
/// Not thread-safe; tests install and clear it around a single call.
using AtomicWriteFaultHook = Status (*)(const std::string& tmp_path);
void SetAtomicWriteFaultHookForTest(AtomicWriteFaultHook hook);

}  // namespace sky::io

#endif  // SKYSCRAPER_IO_ATOMIC_FILE_H_
