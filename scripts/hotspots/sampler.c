/* A wall-clock PC sampler for hosts without perf or gdb, loaded into the
 * profiled program with LD_PRELOAD (scripts/hotspots.sh builds and runs it).
 *
 * A CLOCK_MONOTONIC POSIX timer raises SIGPROF every 100 us; the handler
 * records the interrupted instruction pointer. (ITIMER_PROF and the CPU-time
 * clocks only tick with the scheduler, every ~4 ms on the hosts this was
 * written on.) The signal is process-directed, so profile one busy thread:
 * `repro --jobs 1`. At exit the samples inside the main executable are
 * written to $HOTSPOTS_OUT (nothing is written without it) as hex offsets
 * from its load base, one a line, ready for `addr2line -e <binary>`; the
 * first line counts the rest. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1ul << 23)
static unsigned long samples[MAX_SAMPLES];
static unsigned long nsamples;
static timer_t timer;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    unsigned long i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

/* The first object dl_iterate_phdr reports is the executable: its load
 * base and the end of its highest loadable segment. */
static int main_object(struct dl_phdr_info *info, size_t size, void *out) {
    unsigned long *range = out, end = 0;
    (void)size;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD &&
            info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz > end)
            end = info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
    range[0] = info->dlpi_addr, range[1] = info->dlpi_addr + end;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* children of the profiled program run unsampled */
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    sigaction(SIGPROF, &sa, NULL);
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0)
        timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    unsigned long range[2], n = 0, total;
    timer_delete(timer);
    const char *path = getenv("HOTSPOTS_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f)
        return;
    total = nsamples < MAX_SAMPLES ? nsamples : MAX_SAMPLES;
    dl_iterate_phdr(main_object, range);
    fprintf(f, "# %lu samples\n", total);
    for (unsigned long i = 0; i < total; i++)
        if (samples[i] >= range[0] && samples[i] < range[1])
            fprintf(f, "%lx\n", samples[i] - range[0]), n++;
    fclose(f);
    fprintf(stderr, "hotspots: %lu samples, %lu in the executable\n", total, n);
}
