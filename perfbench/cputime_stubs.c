/* CPU time of the calling thread.  On a guest with paravirtual steal
   accounting this excludes the time the host ran something else on the
   virtual CPU, which a wall clock counts. */
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t perfbench_thread_cpu_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value perfbench_thread_cpu_ns(value unit)
{
  return caml_copy_int64(perfbench_thread_cpu_ns_unboxed(unit));
}
