//===- support/DeepStack.h - Run code on a deep stack -----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parser, checker, translator and tree-walking evaluator recurse
/// in proportion to program depth, and their budgets (for instance
/// sf::EvalOptions::MaxDepth) assume a deep stack: a 10k-module import
/// chain links into a let spine tens of thousands of levels deep, and a
/// runaway recursion must reach the evaluator's depth limit and report
/// it rather than overflow.  The default 8 MiB stack falls short of
/// both, so every thread that compiles or runs programs — fgc's driver,
/// fgcd's stdio and REPL loop, its socket workers, and the batch
/// checker's pool workers — runs on a thread whose stack is sized here.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_DEEPSTACK_H
#define FG_SUPPORT_DEEPSTACK_H

#include <functional>
#include <thread>
#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#endif

namespace fg {

/// Runs \p Fn to completion on a thread with a 512 MiB lazily committed
/// stack and returns its result.  Falls back to the calling thread when
/// no such thread can be created.
inline int runOnDeepStack(const std::function<int()> &Fn) {
#if defined(__unix__) || defined(__APPLE__)
  pthread_attr_t Attr;
  if (pthread_attr_init(&Attr) == 0) {
    struct Call {
      const std::function<int()> &Fn;
      int Ret;
    } C{Fn, 1};
    pthread_t Tid;
    bool Started =
        pthread_attr_setstacksize(&Attr, size_t(512) << 20) == 0 &&
        pthread_create(
            &Tid, &Attr,
            [](void *P) -> void * {
              Call *C = static_cast<Call *>(P);
              C->Ret = C->Fn();
              return nullptr;
            },
            &C) == 0;
    pthread_attr_destroy(&Attr);
    if (Started) {
      pthread_join(Tid, nullptr);
      return C.Ret;
    }
  }
#endif
  return Fn();
}

/// Starts a worker-pool thread whose body \p Fn runs on the deep stack
/// of runOnDeepStack; join the returned thread as usual.
inline std::thread startDeepStackThread(std::function<void()> Fn) {
  return std::thread([Fn = std::move(Fn)] {
    runOnDeepStack([&Fn] {
      Fn();
      return 0;
    });
  });
}

} // namespace fg

#endif // FG_SUPPORT_DEEPSTACK_H
