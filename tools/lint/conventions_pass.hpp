// Conventions pass: the per-file repo-convention rules (the original
// single-pass ifet_lint). Each rule exists because the violation it
// catches has silently corrupted results in systems like this one before
// it ever crashed; docs/CORRECTNESS.md explains every rule. Matching runs
// against the comment/string-stripped `code` view, so prose mentioning
// `rand()` or a brace in a string can no longer confuse a rule.
#pragma once

#include <algorithm>
#include <cctype>
#include <regex>
#include <string>
#include <vector>

#include "lint/tokenizer.hpp"

namespace ifet_lint {

inline bool in_volume_dir(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "volume") return true;
  }
  return false;
}

/// Directories whose files may call the raw volume-load functions: the I/O
/// layer defines them, the streaming layer is the one sanctioned caller.
inline bool may_load_volumes(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "io" || part == "stream") return true;
  }
  return false;
}

/// Directories whose per-voxel passes must use the flat batched inference
/// engine (the scalar-forward-in-hot-loop rule's scope).
inline bool in_hot_dir(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "core" || part == "render") return true;
  }
  return false;
}

/// The streaming layer is the sanctioned place to field load failures
/// broadly (it retries, quarantines, and reattributes them), so the
/// broad-catch-io rule exempts it.
inline bool in_stream_dir(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "stream") return true;
  }
  return false;
}

inline void run_conventions_pass(const SourceFile& file,
                                 std::vector<Finding>& findings) {
  static const std::regex raw_rand_re(R"(\b(rand|srand)\s*\()");
  static const std::regex raw_time_re(R"(\btime\s*\(\s*(NULL|nullptr|0)\s*\))");
  static const std::regex catch_all_re(R"(catch\s*\(\s*\.\.\.\s*\))");
  static const std::regex data_member_re(R"(\bdata_\s*\[)");
  static const std::regex volume_load_re(R"(\bread_vol\s*\()");
  static const std::regex dims_param_re(
      R"([(,]\s*(const\s+)?(ifet::)?Dims\s*[&)\s,])");
  // Longest alternatives first: std::regex picks the leftmost alternative.
  static const std::regex loop_re(
      R"(\b(parallel_for_dynamic|parallel_for_static|parallel_for|for|while)\s*\()");
  static const std::regex scalar_forward_re(
      R"((\.|->)\s*forward(_scalar)?\s*\()");

  const bool header = is_header(file.path);
  const bool volume_dir = in_volume_dir(file.path);
  const bool loader_dir = may_load_volumes(file.path);
  const bool hot_dir = in_hot_dir(file.path);
  bool has_contract_check = false;
  bool has_dims_param = false;
  std::size_t first_dims_line = 0;
  // Loop-body tracking for scalar-forward-in-hot-loop: brace depth plus the
  // depths at which a loop (or parallel_for lambda) body opened. A pending
  // loop header adopts the next `{` as its body.
  int depth = 0;
  std::vector<int> loop_body_depths;
  bool pending_loop = false;

  auto report = [&](std::size_t i, const char* rule, const char* message) {
    if (suppressed(file.raw, i, rule)) return;
    findings.push_back({file.path.string(), i + 1, rule, message});
  };

  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (line.find("IFET_REQUIRE") != std::string::npos ||
        line.find("IFET_DEBUG_ASSERT") != std::string::npos) {
      has_contract_check = true;
    }
    if (!has_dims_param && std::regex_search(line, dims_param_re)) {
      has_dims_param = true;
      first_dims_line = i + 1;
    }

    if (header && line.find("#include <iostream>") != std::string::npos) {
      report(i, "iostream-in-header",
             "headers must use <iosfwd>; include <iostream> in the .cpp");
    }
    if (std::regex_search(line, raw_rand_re) ||
        std::regex_search(line, raw_time_re)) {
      report(i, "raw-rand",
             "use an explicitly seeded ifet::Rng (util/rng.hpp); "
             "rand()/time() seeding breaks reproducibility");
    }
    if (std::regex_search(line, catch_all_re)) {
      report(i, "catch-all",
             "catch concrete exception types; a bare catch (...) hides "
             "corruption the sanitizers would otherwise surface");
    }
    if (!volume_dir && (line.find(".data()[") != std::string::npos ||
                        std::regex_search(line, data_member_re))) {
      report(i, "voxel-raw-access",
             "raw voxel indexing outside src/volume; use at(), the "
             "debug-checked operator[], clamped(), or sample()");
    }
    if (!loader_dir && std::regex_search(line, volume_load_re)) {
      report(i, "direct-volume-load",
             "load volumes through the streaming layer (VolumeStore / "
             "StreamedSequence) so the bytes are budgeted; direct "
             "read_vol() is reserved for src/io and src/stream");
    }
    if (hot_dir) {
      std::ptrdiff_t call_pos = -1;
      std::smatch m;
      if (std::regex_search(line, m, scalar_forward_re)) {
        call_pos = m.position(0);
      }
      if (std::regex_search(line, loop_re)) pending_loop = true;
      for (std::size_t c = 0; c < line.size(); ++c) {
        if (call_pos == static_cast<std::ptrdiff_t>(c) &&
            !loop_body_depths.empty()) {
          report(i, "scalar-forward-in-hot-loop",
                 "scalar Mlp forward inside a loop body; per-voxel passes "
                 "must batch through FlatMlp::forward_batch "
                 "(nn/flat_mlp.hpp) — the scalar path allocates per call");
        }
        if (line[c] == '{') {
          ++depth;
          if (pending_loop) {
            loop_body_depths.push_back(depth);
            pending_loop = false;
          }
        } else if (line[c] == '}') {
          if (!loop_body_depths.empty() && loop_body_depths.back() == depth) {
            loop_body_depths.pop_back();
          }
          --depth;
        }
      }
    }
  }

  const auto ext = file.path.extension().string();
  if ((ext == ".cpp" || ext == ".cc") && has_dims_param &&
      !has_contract_check && !file_suppressed(file.raw, "extent-unchecked")) {
    findings.push_back(
        {file.path.string(), first_dims_line, "extent-unchecked",
         "file handles Dims extents but contains no IFET_REQUIRE / "
         "IFET_DEBUG_ASSERT validating them"});
  }

  // broad-catch-io: try/catch spans lines, so this rule runs on the joined
  // code view with explicit brace matching instead of per-line regexes. A
  // broad handler (catch (...) / catch (const std::exception&)) around a
  // volume-load call site flattens the typed IoError taxonomy the
  // retry/quarantine machinery dispatches on; only src/stream may do that.
  if (!in_stream_dir(file.path)) {
    static const std::regex io_load_re(
        R"(\b(read_vol|open_cvol|fetch|generate)\s*\()");
    static const std::regex broad_decl_re(
        R"(^\s*(\.\.\.|(const\s+)?(std::\s*)?exception\s*&?\s*\w*)\s*$)");
    static const std::regex try_re(R"(\btry\s*\{)");

    std::string text;
    std::vector<std::size_t> line_starts;
    for (const auto& code_line : file.code) {
      line_starts.push_back(text.size());
      text += code_line;
      text += '\n';
    }
    auto line_at = [&](std::size_t pos) {
      auto it =
          std::upper_bound(line_starts.begin(), line_starts.end(), pos);
      return static_cast<std::size_t>(it - line_starts.begin()) - 1;
    };
    auto match_brace = [&](std::size_t open) {
      int brace_depth = 0;
      for (std::size_t p = open; p < text.size(); ++p) {
        if (text[p] == '{') ++brace_depth;
        if (text[p] == '}' && --brace_depth == 0) return p;
      }
      return std::string::npos;
    };

    for (auto it = std::sregex_iterator(text.begin(), text.end(), try_re);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open = static_cast<std::size_t>(it->position(0)) +
                               static_cast<std::size_t>(it->length(0)) - 1;
      const std::size_t close = match_brace(open);
      if (close == std::string::npos) break;  // unbalanced; give up quietly
      const std::string body = text.substr(open + 1, close - open - 1);
      const bool loads = std::regex_search(body, io_load_re);

      std::size_t pos = close + 1;
      while (true) {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
          ++pos;
        }
        if (pos + 5 > text.size() || text.compare(pos, 5, "catch") != 0) {
          break;
        }
        const std::size_t decl_open = text.find('(', pos);
        const std::size_t decl_close =
            decl_open == std::string::npos ? std::string::npos
                                           : text.find(')', decl_open);
        const std::size_t body_open =
            decl_close == std::string::npos ? std::string::npos
                                            : text.find('{', decl_close);
        const std::size_t body_close = body_open == std::string::npos
                                           ? std::string::npos
                                           : match_brace(body_open);
        if (body_close == std::string::npos) break;
        const std::string decl =
            text.substr(decl_open + 1, decl_close - decl_open - 1);
        if (loads && std::regex_match(decl, broad_decl_re)) {
          report(line_at(pos), "broad-catch-io",
                 "broad catch around a volume-load call site flattens the "
                 "typed IoError taxonomy; catch TransientIoError / "
                 "CorruptDataError / NotFoundError (util/io_error.hpp) or "
                 "let the streaming layer's retry/quarantine field it");
        }
        pos = body_close + 1;
      }
    }
  }
}

}  // namespace ifet_lint
