#ifndef SKYSCRAPER_IO_MODEL_IO_H_
#define SKYSCRAPER_IO_MODEL_IO_H_

#include <cstdint>
#include <string>

#include "core/offline.h"
#include "util/result.h"

namespace sky::io {

/// Version of the on-disk model format this build writes (and the only one
/// it reads — see docs/model_format.md for the versioning policy). Bump on
/// any layout change; readers reject files whose version they do not know
/// rather than guessing at the layout. Version 3 packs the training
/// sequence at its category width and reads the chunks in table order.
inline constexpr uint32_t kModelFormatVersion = 3;

/// Serializes a trained OfflineModel into the tagged chunked binary format
/// described in docs/model_format.md: a 16-byte header (magic, version,
/// endianness marker), one chunk per model component, and a trailing
/// checksum chunk over everything before it. Doubles are stored as their
/// raw IEEE-754 bytes, so a save/load round trip is exact: the loaded model
/// satisfies core::OfflineModelsIdentical bitwise, and ingestion runs from
/// it are bitwise-equal to runs from the original (the forecaster chunk
/// carries the Adam optimizer moments, so even online fine-tuning resumes
/// identically).
///
/// `annotation` is a free-form UTF-8 string stored verbatim (the sky CLI
/// records the workload name so `sky ingest` can refuse a model trained for
/// a different job). `out` is overwritten.
Status SerializeOfflineModel(const core::OfflineModel& model,
                             const std::string& annotation, std::string* out);

/// Parses a serialized model, verifying the magic, version, endianness,
/// chunk structure, and checksum, then that the chunks agree on the
/// configuration count and that the training sequence names only the
/// clustering's categories. Corrupted, truncated, or wrong-version input
/// yields an error Status — never a crash and never a partially filled
/// model. A non-null `annotation` receives the stored annotation.
Result<core::OfflineModel> DeserializeOfflineModel(
    const std::string& bytes, std::string* annotation = nullptr);

/// SerializeOfflineModel straight to a file (overwritten if present). The
/// write is crash-consistent: bytes land in a temp file in the target
/// directory, are flushed, then renamed over `path` — an interrupted save
/// never clobbers the last good model (see io::AtomicWriteFile).
Status SaveOfflineModel(const core::OfflineModel& model,
                        const std::string& path,
                        const std::string& annotation = "");

/// Reads a file saved by SaveOfflineModel and parses it with
/// DeserializeOfflineModel. kNotFound when the file cannot be opened,
/// kInternal on a read error.
Result<core::OfflineModel> LoadOfflineModel(const std::string& path,
                                            std::string* annotation = nullptr);

}  // namespace sky::io

#endif  // SKYSCRAPER_IO_MODEL_IO_H_
