#ifndef SKYSCRAPER_IO_CHECKPOINT_IO_H_
#define SKYSCRAPER_IO_CHECKPOINT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/wire.h"
#include "util/result.h"

namespace sky::io {

/// Version of the on-disk checkpoint format this build writes (and the only
/// one it reads — same versioning policy as the model format: bump on any
/// layout change or any change to what a field holds, readers reject
/// unknown versions rather than guessing). Version 6 packs the history
/// ring at the model's category width, as the model's training sequence.
inline constexpr uint32_t kCheckpointFormatVersion = 6;

/// Serializes a full engine session snapshot (core::IngestState) to bytes.
/// Doubles are raw IEEE-754 and the measurement RNG state is exact, so a
/// deserialize + IngestionEngine::Restore resumes the run bitwise — the
/// continuation is indistinguishable from never having stopped, including
/// the trace. The offline model is NOT embedded (checkpoints stay small):
/// deserialization borrows category/profile tables from the model the
/// engine already holds, and the restored run reads its oldest history
/// from that model's training tail, so a state restores only against the
/// model that started it.
Status SerializeIngestState(const core::IngestState& state, std::string* out);

/// Parses bytes written by SerializeIngestState against `model` — which must
/// be the model of the engine the state will be restored into (bitwise the
/// same one that took the checkpoint, or the resumed run diverges).
/// Corrupted or truncated input, or a state inconsistent with the model's
/// shapes, yields an error — never a partially filled state.
Result<core::IngestState> DeserializeIngestState(
    const std::string& bytes, const core::OfflineModel& model);

/// EngineResult's layout (io/wire.h, "Symmetric codec"): every field of
/// core::ForEachResultField, then the trace, doubles as raw IEEE-754, so
/// round trips are bitwise. Shared by engine checkpoints, serve checkpoints
/// and the serve protocol's result frames (one layout, three transports).
template <class Io, class R>
void TransferEngineResult(Io& io, R& r);

/// TransferEngineResult to the end of `out`.
void AppendEngineResult(const core::EngineResult& r, std::string* out);

/// One stream's entry in a fleet checkpoint: its quarantine status and (for
/// streams that have started) the serialized engine state.
struct StreamCheckpoint {
  Status status;
  bool has_state = false;
  std::string state;  ///< SerializeIngestState bytes when has_state
};

/// A crash-consistent snapshot of an entire StreamSet, taken at a lockstep
/// plan boundary so every stream is at the same virtual time.
struct FleetCheckpoint {
  std::vector<StreamCheckpoint> streams;
};

/// Renders a fleet checkpoint to bytes: the chunked, checksummed wire
/// format (magic SKYCKPT1, versioned header, one chunk per stream, FNV-1a
/// trailer). The serve-server checkpoint embeds these bytes verbatim inside
/// its own file, so the fleet layout has exactly one definition.
Status SerializeFleetCheckpoint(const FleetCheckpoint& ckpt,
                                std::string* out);

/// Parses bytes produced by SerializeFleetCheckpoint. kInvalidArgument for
/// corrupt, truncated, or wrong-version contents (the checksum is verified
/// before anything is parsed).
Result<FleetCheckpoint> ParseFleetCheckpoint(const std::string& bytes);

/// Writes a fleet checkpoint to `path` (SerializeFleetCheckpoint through
/// io::AtomicWriteFile) — a crash mid-save never clobbers the last good
/// checkpoint.
Status SaveFleetCheckpoint(const FleetCheckpoint& ckpt,
                           const std::string& path);

/// Reads a checkpoint written by SaveFleetCheckpoint. kNotFound for a
/// missing file; kInvalidArgument for corrupt, truncated, or wrong-version
/// contents.
Result<FleetCheckpoint> LoadFleetCheckpoint(const std::string& path);

}  // namespace sky::io

#endif  // SKYSCRAPER_IO_CHECKPOINT_IO_H_
