// Fixture: POSIX/C11 wall-clock reads. Never compiled; read by
// analyze_tests.
#include <ctime>

long fixture_posix_clock() {
  std::timespec ts;
  timespec_get(&ts, TIME_UTC);
  std::tm local;
  localtime_r(&ts.tv_sec, &local);
  std::tm utc;
  gmtime_r(&ts.tv_sec, &utc);
  return local.tm_hour + utc.tm_hour;
}
