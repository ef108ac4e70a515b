/**
 * @file
 * timed_exec — run one command and report its wall time, CPU time and
 * peak resident set size.
 *
 *   timed_exec REPORT TIMEOUT_S PROGRAM [ARGS...]
 *
 * Forks PROGRAM with the inherited stdin/stdout/stderr, waits for it,
 * and writes one line to REPORT:
 *   <exit code, or -signal> <wall s> <user+sys s> <ru_maxrss KiB>
 * PROGRAM is killed after TIMEOUT_S seconds.
 *
 * run.py launches jobs through this small process rather than forking
 * them from Python: Linux carries a process's peak RSS across exec, so
 * a child forked from the Python runner would report the runner's own
 * footprint as its peak whenever the job itself is smaller.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace
{

volatile sig_atomic_t child = 0;

void
onAlarm(int)
{
    if (child > 0)
        kill(child, SIGKILL);
}

double
now()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: timed_exec REPORT TIMEOUT_S PROGRAM [ARGS...]\n");
        return 2;
    }
    const unsigned timeout =
        static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10));
    std::FILE *report = std::fopen(argv[1], "we");
    if (report == nullptr) {
        std::perror(argv[1]);
        return 2;
    }

    std::signal(SIGALRM, onAlarm);
    const pid_t parent = getpid();
    const double start = now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return 2;
    }
    if (pid == 0) {
        // Die with this process, so killing it stops the whole job.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        execvp(argv[3], argv + 3);
        std::perror(argv[3]);
        _exit(127);
    }
    child = pid;
    alarm(timeout);

    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("wait4");
            return 2;
        }
    }
    const double wall = now() - start;
    alarm(0);

    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : -WTERMSIG(status);
    std::fprintf(report, "%d %.9f %.6f %ld\n", code, wall,
                 seconds(usage.ru_utime) + seconds(usage.ru_stime),
                 usage.ru_maxrss);
    return std::fclose(report) == 0 ? 0 : 2;
}
