package qrg

// RaceEnabled tells the external test package whether the race detector
// instruments this build.
const RaceEnabled = raceEnabled
