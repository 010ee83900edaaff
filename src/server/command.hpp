// Scripted client commands for the multi-tenant server.
//
// A client session drives the extraction/tracking pipelines through a
// small command vocabulary instead of direct method calls, so requests
// can be queued on the session's strand (per-session FIFO, cross-session
// parallel — see session_manager.hpp) and replayed deterministically by
// scripted clients (tests/server_test.cpp). Every command reduces its
// product — a feedback volume, a synthesized TF, a track mask set, a
// rendered frame — to a CRC32 digest, which is what the
// tight-vs-infinite-budget bitwise equivalence check compares.
#pragma once

#include <cstdint>
#include <string>

#include "session/session.hpp"
#include "volume/volume.hpp"

namespace ifet {

enum class CommandKind {
  kPaint,            ///< Brush stroke into the classifier's training set.
  kSelectUnwanted,   ///< Mark a box of voxels as negative samples.
  kTrainClassifier,  ///< Deterministic classifier training epochs.
  kClassify,         ///< Feedback volume of a step; digest of the voxels.
  kSetKeyFrame,      ///< Upsert a banded key-frame TF at a step.
  kTrainTf,          ///< Deterministic IATF training epochs.
  kQueryTf,          ///< Adaptive TF for a step via the shared
                     ///< DerivedCache (the cross-client dedup path).
  kHistogram,        ///< Cumulative histogram of a step (shared products).
  kTrack,            ///< 4D region growing with the adaptive criterion.
  kRender,           ///< Preview frame through the current adaptive TF.
  kHintWindow,       ///< Declare the client's step window.
};

/// Backpressure class of a command kind (docs/SERVER.md contract table).
/// Sheddable commands are idempotent reads whose product a client can
/// re-request without losing session state (renders, TF queries,
/// histograms, classification snapshots); once a newer request supersedes
/// them they may be dropped from a full queue. State-mutating commands
/// (paint, training, key frames, tracking, window hints) are NEVER shed
/// once accepted — a client must be able to rely on an accepted mutation
/// happening — so under overload they can only be rejected at submit.
constexpr bool command_is_sheddable(CommandKind kind) {
  switch (kind) {
    case CommandKind::kClassify:
    case CommandKind::kQueryTf:
    case CommandKind::kHistogram:
    case CommandKind::kRender:
      return true;
    case CommandKind::kPaint:
    case CommandKind::kSelectUnwanted:
    case CommandKind::kTrainClassifier:
    case CommandKind::kSetKeyFrame:
    case CommandKind::kTrainTf:
    case CommandKind::kTrack:
    case CommandKind::kHintWindow:
      return false;
  }
  return false;
}

struct Command {
  CommandKind kind = CommandKind::kHintWindow;
  /// Target step (paint / classify / key frame / query / track seed step /
  /// render / histogram).
  int step = 0;

  /// Time budget in milliseconds, stamped as an ABSOLUTE deadline when the
  /// command is accepted (queue time counts); 0 = unlimited. A command
  /// whose budget runs out fails with ServerStatus::kDeadlineExceeded —
  /// mutating commands interrupted mid-flight may have partially applied,
  /// so clients give mutations generous budgets (docs/SERVER.md).
  double deadline_ms = 0.0;

  // kPaint
  PaintStroke stroke{};
  // kSelectUnwanted
  Index3 box_lo{};
  Index3 box_hi{};
  // kTrainClassifier / kTrainTf (epoch-counted — never wall-clock — so
  // replays are bitwise reproducible).
  int epochs = 1;
  // kSetKeyFrame: one opacity band, positioned as FRACTIONS of the
  // sequence value range so scripts are data-set independent.
  double band_lo = 0.4;
  double band_hi = 0.6;
  double band_peak = 0.9;
  double band_skirt = 0.05;
  // kTrack
  Index3 seed{};
  double opacity_cut = 0.25;
  int track_min_step = -1;
  int track_max_step = -1;
  // kRender
  int image_size = 32;
  double azimuth = 0.6;
  double elevation = 0.4;
  double distance = 2.0;
  // kHintWindow
  int window_lo = 0;
  int window_hi = 0;
};

/// Typed outcome of a submitted command. Every submitted command gets
/// exactly one result — never a silent drop, never a hang: a refused or
/// shed command completes with kOverloaded, a blown budget with
/// kDeadlineExceeded (docs/ROBUSTNESS.md, "Overload and deadlines").
enum class ServerStatus : std::uint8_t {
  kOk,                ///< Command ran; digest/value are valid.
  kError,             ///< Command ran and failed; `error` has the text.
  kOverloaded,        ///< Rejected at submit or shed from a full queue;
                      ///< retry after `retry_after_ms`.
  kDeadlineExceeded,  ///< The command's budget ran out (queued or running).
};

struct ServerResult {
  bool ok = true;
  ServerStatus status = ServerStatus::kOk;  ///< Typed outcome; ok ==
                                            ///< (status == kOk).
  double retry_after_ms = 0.0;  ///< kOverloaded only: the server's backlog
                                ///< estimate (queue depth x recent service
                                ///< time) — when a retry is worth sending.
  std::string error;      ///< Exception text when !ok.
  std::uint32_t digest = 0;  ///< CRC32 of the command's product (0 for
                             ///< commands without one).
  double value = 0.0;     ///< Command-specific scalar: painted voxels,
                          ///< training MSE, tracked voxels, ...

  // kRender only: the served frame's brick empty-space-skipping counters
  // (zero for other commands), so clients observe the ingest-time brick
  // index working without a second round trip.
  std::uint64_t bricks_total = 0;   ///< Bricks in the step's index.
  std::uint64_t bricks_active = 0;  ///< Bricks the adaptive TF left visible.
  double skip_rate = 0.0;           ///< Fraction of samples clipped.
};

}  // namespace ifet
