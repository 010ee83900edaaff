// Typed I/O error taxonomy (docs/ROBUSTNESS.md).
//
// The streaming pipeline makes thousands of step fetches over hundreds of
// gigabytes of time-varying data; "something went wrong reading step t" is
// not actionable enough for a long-running service. Every error raised by
// the disk -> cache -> pipeline path therefore carries its recovery
// contract in its type:
//
//   TransientIoError  — the same operation may succeed if repeated
//                       (interrupted read, racing writer, overloaded
//                       filesystem). VolumeStore retries these with
//                       deterministic exponential backoff.
//   CorruptDataError  — the bytes are there but wrong: checksum mismatch,
//                       truncated frame, malformed header, RLE stream that
//                       ends mid-volume. Retried (a torn write may
//                       complete), then quarantined.
//   ChecksumMismatchError — the CorruptDataError a failed CRC raises (a
//                       .cvol frame or brick record, a .vol payload), so
//                       VolumeStore counts checksum failures from the type
//                       while every CorruptDataError handler still
//                       matches it.
//   NotFoundError     — the file or step does not exist at all. Not
//                       retried; quarantined immediately.
//   DeadlineExceeded  — the caller's time budget ran out while waiting
//                       for the data (util/deadline.hpp). The data is NOT
//                       bad: never retried against the budget that just
//                       expired, never quarantines the step, never
//                       triggers a FailPolicy substitution — the same
//                       fetch with a fresh budget is expected to succeed.
//
// All of them derive from IoError (itself an ifet::Error), so legacy
// `catch (const Error&)` handlers keep working while new code handles each
// failure mode distinctly. The ifet_lint `broad-catch-io` rule enforces
// typed handling around volume-load call sites outside src/stream.
#pragma once

#include <string>

#include "util/error.hpp"

namespace ifet {

/// Base of every error raised by the volume I/O / streaming path.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Retryable: repeating the same operation may succeed.
class TransientIoError : public IoError {
 public:
  explicit TransientIoError(const std::string& what) : IoError(what) {}
};

/// The payload is damaged (checksum mismatch, truncation, bad header).
class CorruptDataError : public IoError {
 public:
  explicit CorruptDataError(const std::string& what) : IoError(what) {}
};

/// The bytes fail their CRC32: the payload changed on disk or in transit.
class ChecksumMismatchError : public CorruptDataError {
 public:
  explicit ChecksumMismatchError(const std::string& what)
      : CorruptDataError(what) {}
};

/// The file / step does not exist; retrying the read cannot help.
class NotFoundError : public IoError {
 public:
  explicit NotFoundError(const std::string& what) : IoError(what) {}
};

/// The caller's time budget (or cancellation token) expired while waiting
/// on the streaming stack. IMPORTANT ordering contract: every
/// `catch (const IoError&)` on the load path must pre-catch and rethrow
/// this type — a timeout must never be retried, quarantined, or
/// substituted like a data failure (the step itself is healthy).
class DeadlineExceeded : public IoError {
 public:
  explicit DeadlineExceeded(const std::string& what) : IoError(what) {}
};

}  // namespace ifet
