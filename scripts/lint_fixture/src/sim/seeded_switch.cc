// Seeded rule-6 violation for the lint self-test (never compiled): a switch
// over EventTag hides behind a default label, so an enumerator added later
// would be silently swallowed instead of failing the build. locus_analyze
// must flag a 'non-exhaustive switch' finding.

bool SeededIsTimerTag(EventTag tag) {
  switch (tag) {
    case EventTag::kWakeup:
    case EventTag::kSleepDone:
      return true;
    default:  // The seeded violation: swallows future enumerators.
      return false;
  }
}
