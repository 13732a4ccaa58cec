/*
 * alloc_profile.so: an LD_PRELOAD sampler of heap allocations and bulk
 * copies, driven by scripts/alloc_profile.sh.
 *
 * It counts every malloc/calloc/realloc and every memcpy/memmove the
 * process makes through the dynamic linker (calls the compiler inlines are
 * not seen). Every kEvery-th (16th) event of a thread is sampled: its call stack, minus this library and the C and C++
 * runtimes, is aggregated in-process. At exit the totals and the sampled
 * stacks are written to ALLOC_PROFILE_OUT (default alloc_profile.out) as
 *
 *   total <malloc|copy> <calls> <bytes>
 *   every <n>
 *   stack <malloc|copy> <samples> <bytes> <object>:<offset> ...
 *
 * with offsets relative to each object's load address, ready for
 * `addr2line -i -f -C -e <object>`.
 *
 * Build: cc -O2 -shared -fPIC -o alloc_profile.so alloc_profile.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);

enum { kMalloc = 0, kCopy = 1, kKinds = 2 };
enum { kDepth = 6, kSkipMax = 32, kSlots = 1 << 16, kEvery = 16 };

typedef void* (*copy_fn)(void*, const void*, size_t);

struct Stack {
  uintptr_t pcs[kDepth];
  uint64_t samples;
  uint64_t bytes;
  int kind;
  int used;
};

static struct Stack g_stacks[kSlots];
static atomic_flag g_lock = ATOMIC_FLAG_INIT;
static _Atomic uint64_t g_calls[kKinds];
static _Atomic uint64_t g_bytes[kKinds];
static int g_ready;
static copy_fn g_memcpy;
static copy_fn g_memmove;
/* Load addresses of the objects whose frames are never the answer. */
static uintptr_t g_skip[4];

static __thread int t_in_hook;
static __thread unsigned t_countdown;

/* This library must not call memcpy itself: it would sample itself. */
static void* copy_bytes(void* dst, const void* src, size_t n) {
  unsigned char* d = dst;
  const unsigned char* s = src;
  if (d < s) {
    for (size_t i = 0; i < n; ++i) d[i] = s[i];
  } else {
    for (size_t i = n; i > 0; --i) d[i - 1] = s[i - 1];
  }
  return dst;
}

static uintptr_t object_base(const void* addr) {
  Dl_info info;
  if (addr == NULL || dladdr(addr, &info) == 0) return 0;
  return (uintptr_t)info.dli_fbase;
}

static int skipped(uintptr_t pc) {
  const uintptr_t base = object_base((const void*)pc);
  for (int i = 0; i < 4; ++i) {
    if (g_skip[i] != 0 && base == g_skip[i]) return 1;
  }
  return 0;
}

static void sample(int kind, size_t bytes) {
  void* frames[kSkipMax];
  const int n = backtrace(frames, kSkipMax);
  struct Stack key = {{0}, 0, 0, kind, 1};
  int depth = 0;
  for (int i = 1; i < n && depth < kDepth; ++i) {
    const uintptr_t pc = (uintptr_t)frames[i];
    if (depth == 0 && skipped(pc)) continue;
    key.pcs[depth++] = pc;
  }
  uint64_t h = (uint64_t)kind * 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kDepth; ++i) h = (h ^ key.pcs[i]) * 0x100000001B3ull;
  while (atomic_flag_test_and_set_explicit(&g_lock, memory_order_acquire)) {
  }
  for (unsigned probe = 0; probe < kSlots; ++probe) {
    struct Stack* s = &g_stacks[(h + probe) & (kSlots - 1)];
    int same = s->used && s->kind == kind;
    for (int i = 0; same && i < kDepth; ++i) same = s->pcs[i] == key.pcs[i];
    if (!s->used) {
      *s = key;
      same = 1;
    }
    if (same) {
      s->samples += 1;
      s->bytes += bytes;
      break;
    }
  }
  atomic_flag_clear_explicit(&g_lock, memory_order_release);
}

static void event(int kind, size_t bytes) {
  atomic_fetch_add_explicit(&g_calls[kind], 1, memory_order_relaxed);
  atomic_fetch_add_explicit(&g_bytes[kind], bytes, memory_order_relaxed);
  if (!g_ready || t_in_hook) return;
  if (t_countdown > 0) {
    t_countdown -= 1;
    return;
  }
  t_countdown = kEvery - 1;
  t_in_hook = 1;
  sample(kind, bytes);
  t_in_hook = 0;
}

void* malloc(size_t n) {
  event(kMalloc, n);
  return __libc_malloc(n);
}

void* calloc(size_t count, size_t n) {
  event(kMalloc, count * n);
  return __libc_calloc(count, n);
}

void* realloc(void* p, size_t n) {
  event(kMalloc, n);
  return __libc_realloc(p, n);
}

void* memcpy(void* dst, const void* src, size_t n) {
  event(kCopy, n);
  return g_memcpy != NULL ? g_memcpy(dst, src, n) : copy_bytes(dst, src, n);
}

void* memmove(void* dst, const void* src, size_t n) {
  event(kCopy, n);
  return g_memmove != NULL ? g_memmove(dst, src, n) : copy_bytes(dst, src, n);
}

__attribute__((constructor)) static void profile_init(void) {
  t_in_hook = 1;
  g_memcpy = (copy_fn)dlsym(RTLD_NEXT, "memcpy");
  g_memmove = (copy_fn)dlsym(RTLD_NEXT, "memmove");
  g_skip[0] = object_base((const void*)&profile_init);
  g_skip[1] = object_base((const void*)&__libc_malloc);
  g_skip[2] = object_base(dlsym(RTLD_DEFAULT, "_Znwm"));  /* libstdc++ */
  g_skip[3] = object_base(dlsym(RTLD_DEFAULT, "_Unwind_Backtrace"));
  void* warm[2];
  (void)backtrace(warm, 2);  /* loads the unwinder before sampling */
  t_in_hook = 0;
  g_ready = 1;
}

static void print_frame(FILE* out, uintptr_t pc) {
  Dl_info info;
  if (dladdr((const void*)pc, &info) == 0 || info.dli_fname == NULL) {
    fprintf(out, " ?:0");
    return;
  }
  /* pc - 1: a return address points past its call instruction. */
  fprintf(out, " %s:%#lx", info.dli_fname,
          (unsigned long)(pc - 1 - (uintptr_t)info.dli_fbase));
}

__attribute__((destructor)) static void profile_dump(void) {
  t_in_hook = 1;
  g_ready = 0;
  const char* path = getenv("ALLOC_PROFILE_OUT");
  FILE* out = fopen(path != NULL ? path : "alloc_profile.out", "w");
  if (out == NULL) return;
  static const char* const kNames[kKinds] = {"malloc", "copy"};
  for (int k = 0; k < kKinds; ++k) {
    fprintf(out, "total %s %llu %llu\n", kNames[k],
            (unsigned long long)atomic_load(&g_calls[k]),
            (unsigned long long)atomic_load(&g_bytes[k]));
  }
  fprintf(out, "every %d\n", kEvery);
  for (unsigned i = 0; i < kSlots; ++i) {
    const struct Stack* s = &g_stacks[i];
    if (!s->used) continue;
    fprintf(out, "stack %s %llu %llu", kNames[s->kind],
            (unsigned long long)s->samples, (unsigned long long)s->bytes);
    for (int d = 0; d < kDepth && s->pcs[d] != 0; ++d) {
      print_frame(out, s->pcs[d]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
