// The SVM layer's one fatal-error exit, shared by its source files (not
// part of the public svm.hpp).
#pragma once

namespace msvm::svm {

/// Prints `msg` and aborts: an SVM invariant the simulation cannot
/// continue past (exhausted frames, mismatched collectives).
[[noreturn]] void panic(const char* msg);

}  // namespace msvm::svm
