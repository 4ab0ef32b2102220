#include "svm/shadow_directory.hpp"

#include <string>

#include "svm/protocol/recovery.hpp"
#include "svm/protocol/types.hpp"

namespace msvm::svm {
namespace {

using obs::Event;
using obs::EventKind;

std::string page_str(u64 page) { return "page " + std::to_string(page); }

}  // namespace

void ShadowDirectory::record_violation(const Event& e, const char* invariant,
                                       const std::string& detail) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back("t=" + std::to_string(e.t_ps) +
                          "ps core=" + std::to_string(e.core) + " [" +
                          invariant + "] " + detail);
  }
}

void ShadowDirectory::on_event(const Event& e) {
  ++events_audited_;

  // Dead-core silence. The kill record itself is published by the dying
  // core at its fail-stop instant, so it is checked-then-inserted here
  // rather than flagged.
  if (e.kind == EventKind::kFaultInject &&
      static_cast<obs::InjectKind>(e.a) == obs::InjectKind::kCoreKill) {
    dead_.insert(e.core);
    // A core that died holding OwnedRW never publishes the Invalid
    // transition; release its shadow writer slot so the page's next
    // legitimate owner (elected by recovery) is not a false positive.
    for (auto& [page, shadow] : pages_) {
      if (shadow.writer == e.core) shadow.writer = -1;
    }
    return;
  }
  if (e.core >= 0 && dead_.count(e.core) != 0) {
    record_violation(e, "dead-silence",
                     std::string(obs::to_string(e.kind)) +
                         " published after this core's fail-stop");
    return;
  }

  switch (e.kind) {
    case EventKind::kProtoTransition: {
      if (!cfg_.single_writer) break;
      const u64 page = e.a;
      const auto from = static_cast<proto::PageState>(e.b);
      const auto to = static_cast<proto::PageState>(e.c);
      PageShadow& shadow = pages_[page];
      if (to != proto::PageState::kInvalid && poisoned_.count(page) != 0) {
        record_violation(e, "poison-finality",
                         page_str(page) + ": entering " +
                             proto::to_string(to) +
                             " after the integrity layer poisoned it");
      }
      if (from == proto::PageState::kOwnedRW && shadow.writer == e.core) {
        shadow.writer = -1;
      }
      if (to == proto::PageState::kOwnedRW) {
        if (shadow.writer != -1 && shadow.writer != e.core) {
          record_violation(
              e, "writer-exclusivity",
              page_str(page) + ": entering OwnedRW while core " +
                  std::to_string(shadow.writer) + " still owns it");
        }
        shadow.writer = e.core;
      } else if (to == proto::PageState::kSharedRO) {
        // Owner exemption covers downgrades and first touches. Sharer c
        // is bit c % 64 of word c / 64. No core's bit is the Shared bit
        // (bit 63 of the last word): below 64 cores sharers stop at bit
        // 62, above they fill every word but the last.
        if (!shadow.dir.empty() && shadow.owner_known && e.core >= 0) {
          const bool is_owner =
              shadow.owner_word == static_cast<u64>(e.core);
          const auto w = static_cast<std::size_t>(e.core / 64);
          const bool in_dir =
              w < shadow.dir.size() && ((shadow.dir[w] >> (e.core % 64)) & 1);
          if (!is_owner && !in_dir) {
            record_violation(
                e, "sharer-subset",
                page_str(page) + ": entering SharedRO while neither owner (" +
                    std::to_string(shadow.owner_word) +
                    ") nor in the directory entry");
          }
        }
      }
      break;
    }

    case EventKind::kProtoMetaWrite: {
      const u64 page = e.a;
      const proto::MetaKind kind = proto::meta_tag_kind(e.b);
      PageShadow& shadow = pages_[page];
      if (kind == proto::MetaKind::kOwner) {
        shadow.owner_word = e.c;
        shadow.owner_known = true;
      } else if (kind == proto::MetaKind::kDirectory) {
        const auto w = static_cast<std::size_t>(proto::meta_tag_word(e.b));
        if (shadow.dir.size() <= w) shadow.dir.resize(w + 1);
        shadow.dir[w] = e.c;
      }
      break;
    }

    case EventKind::kMailCorruptDrop:
      ++mail_corrupt_drops_;
      break;

    case EventKind::kPageCorrupt:
      ++page_corruptions_;
      poisoned_.insert(e.a);
      break;

    case EventKind::kMetaCorrupt:
      ++meta_corruptions_;
      break;

    case EventKind::kRecoveryBegin: {
      if (e.a <= last_epoch_) {
        record_violation(e, "epoch-monotonicity",
                         "recovery epoch " + std::to_string(e.a) +
                             " after epoch " + std::to_string(last_epoch_) +
                             " (" + page_str(e.c) + ")");
      }
      last_epoch_ = e.a;
      break;
    }

    default:
      break;
  }
}

std::string ShadowDirectory::report() const {
  std::string out = "coherence audit: " + std::to_string(events_audited_) +
                    " events, " + std::to_string(violation_count_) +
                    " violations";
  if (mail_corrupt_drops_ + page_corruptions_ + meta_corruptions_ > 0) {
    out += " (integrity: " + std::to_string(mail_corrupt_drops_) +
           " mail drops, " + std::to_string(page_corruptions_) +
           " page corruptions, " + std::to_string(poisoned_.size()) +
           " poisoned, " + std::to_string(meta_corruptions_) +
           " meta corrections)";
  }
  if (violation_count_ == 0) {
    out += " (clean)\n";
    return out;
  }
  out += "\n";
  for (const std::string& v : violations_) {
    out += "  " + v + "\n";
  }
  if (violation_count_ > violations_.size()) {
    out += "  ... " +
           std::to_string(violation_count_ - violations_.size()) +
           " more (storage capped)\n";
  }
  return out;
}

}  // namespace msvm::svm
