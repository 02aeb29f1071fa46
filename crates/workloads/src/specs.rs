//! The Table 3 app inventory.

use crate::actions::Action;

/// One app from the paper's evaluation (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Display name as in Table 3.
    pub name: String,
    /// Package name.
    pub package: String,
    /// The Table 3 workload description.
    pub workload: String,
    /// APK size in MiB (Figure 15's reference series).
    pub apk_mib: f64,
    /// App data directory size in MiB.
    pub data_dir_mib: f64,
    /// Dalvik heap size in MiB.
    pub heap_mib: f64,
    /// Fraction of the heap dirty at migration time.
    pub heap_dirty: f64,
    /// Native allocations in MiB.
    pub native_mib: f64,
    /// GPU texture memory per context in MiB.
    pub textures_mib: f64,
    /// EGL context count (0 = software rendering).
    pub gl_contexts: u32,
    /// View-hierarchy size.
    pub views: usize,
    /// Threads beyond main.
    pub threads: u32,
    /// Whether the app runs in multiple processes (Facebook).
    pub multi_process: bool,
    /// Whether the app calls `setPreserveEGLContextOnPause`
    /// (Subway Surfers).
    pub preserve_egl: bool,
    /// Minimum API level the APK requires.
    pub min_api: u32,
    /// The scripted workload run before migrating.
    pub actions: Vec<Action>,
}

fn base(
    name: &str,
    package: &str,
    workload: &str,
    apk: f64,
    heap: f64,
    dirty: f64,
    actions: Vec<Action>,
) -> AppSpec {
    AppSpec {
        name: name.into(),
        package: package.into(),
        workload: workload.into(),
        apk_mib: apk,
        data_dir_mib: (apk * 0.35).max(1.0),
        heap_mib: heap,
        heap_dirty: dirty,
        native_mib: 6.0,
        textures_mib: 10.0,
        gl_contexts: 1,
        views: 45,
        threads: 5,
        multi_process: false,
        preserve_egl: false,
        min_api: 16,
        actions,
    }
}

/// Looks up an app by display name.
pub fn spec(name: &str) -> Option<AppSpec> {
    top_apps().into_iter().find(|s| s.name == name)
}

/// The eighteen Table 3 apps in the paper's order, with calibrated
/// footprints and scripted workloads.
pub fn top_apps() -> Vec<AppSpec> {
    let think = |ms| Action::Think { ms };
    vec![
        base(
            "Bible",
            "com.sirma.mobile.bible.android",
            "View page of the Bible",
            18.0,
            18.0,
            0.45,
            vec![
                Action::RegisterReceiver {
                    receiver: "verse-of-day".into(),
                    actions: "android.intent.action.CONFIGURATION_CHANGED".into(),
                },
                Action::SetAlarm {
                    operation: "daily-verse".into(),
                    in_secs: 86_400,
                },
                Action::WriteDataFile {
                    name: "bookmarks.db".into(),
                    kib: 96,
                },
                Action::DrawFrames { frames: 30 },
                think(500),
            ],
        ),
        base(
            "Bubble Witch Saga",
            "com.king.bubblewitch",
            "Play witch-themed puzzle game",
            46.0,
            28.0,
            0.6,
            vec![
                Action::SetVolume {
                    stream: 3,
                    index: 9,
                },
                Action::RequestAudioFocus {
                    client: "bubble-music".into(),
                },
                Action::DrawFrames { frames: 600 },
                Action::SetAlarm {
                    operation: "lives-refill".into(),
                    in_secs: 1_800,
                },
                Action::WriteDataFile {
                    name: "save.dat".into(),
                    kib: 220,
                },
            ],
        ),
        {
            let mut s = base(
                "Candy Crush Saga",
                "com.king.candycrushsaga",
                "Play candy-themed puzzle game",
                43.0,
                40.0,
                0.62,
                vec![
                    Action::SetVolume {
                        stream: 3,
                        index: 11,
                    },
                    Action::RequestAudioFocus {
                        client: "candy-music".into(),
                    },
                    Action::DrawFrames { frames: 900 },
                    Action::SetAlarm {
                        operation: "lives-refill".into(),
                        in_secs: 1_500,
                    },
                    Action::PostNotification {
                        id: 7,
                        payload_kib: 24,
                    },
                    Action::WriteDataFile {
                        name: "progress.db".into(),
                        kib: 340,
                    },
                ],
            );
            s.textures_mib = 24.0;
            s.views = 60;
            s
        },
        base(
            "eBay",
            "com.ebay.mobile",
            "View online auction",
            13.0,
            24.0,
            0.5,
            vec![
                Action::RegisterReceiver {
                    receiver: "bid-watcher".into(),
                    actions: "android.net.conn.CONNECTIVITY_CHANGE".into(),
                },
                Action::SetAlarm {
                    operation: "auction-ending".into(),
                    in_secs: 420,
                },
                Action::PostNotification {
                    id: 3,
                    payload_kib: 12,
                },
                Action::WriteDataFile {
                    name: "watchlist.json".into(),
                    kib: 48,
                },
                think(800),
            ],
        ),
        base(
            "Flappy Bird",
            "com.dotgears.flappybird",
            "Play obstacle game",
            0.9,
            9.0,
            0.55,
            vec![
                Action::SetVolume {
                    stream: 3,
                    index: 8,
                },
                Action::DrawFrames { frames: 1_200 },
                Action::Vibrate { ms: 40 },
                Action::WriteDataFile {
                    name: "highscore".into(),
                    kib: 2,
                },
            ],
        ),
        {
            let mut s = base(
                "Surpax Flashlight",
                "com.surpax.ledflashlight.panel",
                "Use LED flashlight",
                2.1,
                5.0,
                0.4,
                vec![
                    Action::AcquireWakeLock {
                        tag: "flashlight".into(),
                    },
                    think(2_000),
                ],
            );
            s.gl_contexts = 0;
            s.textures_mib = 0.0;
            s.views = 12;
            s
        },
        base(
            "GroupOn",
            "com.groupon",
            "View discount offer",
            11.0,
            22.0,
            0.48,
            vec![
                Action::RequestLocation {
                    provider: "network".into(),
                },
                Action::PostNotification {
                    id: 11,
                    payload_kib: 16,
                },
                Action::WriteDataFile {
                    name: "deals.cache".into(),
                    kib: 180,
                },
                think(600),
            ],
        ),
        base(
            "Instagram",
            "com.instagram.android",
            "Browse a friend's photos",
            13.0,
            30.0,
            0.55,
            vec![
                Action::DrawFrames { frames: 240 },
                Action::WriteDataFile {
                    name: "feed.cache".into(),
                    kib: 420,
                },
                Action::RegisterReceiver {
                    receiver: "dm-push".into(),
                    actions: "android.net.conn.CONNECTIVITY_CHANGE".into(),
                },
                think(900),
            ],
        ),
        base(
            "Netflix",
            "com.netflix.mediaclient",
            "Browse available movies",
            10.0,
            26.0,
            0.5,
            vec![
                Action::RequestAudioFocus {
                    client: "netflix-playback".into(),
                },
                Action::SetVolume {
                    stream: 3,
                    index: 12,
                },
                Action::DrawFrames { frames: 300 },
                Action::WriteDataFile {
                    name: "browse.cache".into(),
                    kib: 260,
                },
                think(1_200),
            ],
        ),
        base(
            "Pinterest",
            "com.pinterest",
            "Explore \"pinned\" items of interest",
            14.0,
            30.0,
            0.55,
            vec![
                Action::DrawFrames { frames: 280 },
                Action::WriteDataFile {
                    name: "boards.cache".into(),
                    kib: 380,
                },
                think(700),
            ],
        ),
        {
            let mut s = base(
                "Snapchat",
                "com.snapchat.android",
                "Take photo and compose text",
                9.0,
                26.0,
                0.52,
                vec![
                    Action::UseSensor { handle: 0 },
                    Action::DrawFrames { frames: 180 },
                    Action::SetClipboard { bytes: 280 },
                    Action::WriteDataFile {
                        name: "snap.jpg".into(),
                        kib: 850,
                    },
                ],
            );
            s.threads = 7;
            s
        },
        base(
            "Skype",
            "com.skype.raider",
            "View contact status",
            23.0,
            32.0,
            0.55,
            vec![
                Action::RegisterReceiver {
                    receiver: "call-push".into(),
                    actions: "android.net.conn.CONNECTIVITY_CHANGE".into(),
                },
                Action::AcquireWakeLock {
                    tag: "incoming-call".into(),
                },
                Action::ReleaseWakeLock {
                    tag: "incoming-call".into(),
                },
                Action::PostNotification {
                    id: 1,
                    payload_kib: 8,
                },
                think(400),
            ],
        ),
        base(
            "Twitter",
            "com.twitter.android",
            "View a user's Tweets",
            12.0,
            26.0,
            0.5,
            vec![
                Action::PostNotification {
                    id: 21,
                    payload_kib: 10,
                },
                Action::SetAlarm {
                    operation: "timeline-refresh".into(),
                    in_secs: 900,
                },
                Action::WriteDataFile {
                    name: "timeline.db".into(),
                    kib: 300,
                },
                think(500),
            ],
        ),
        base(
            "Vine",
            "co.vine.android",
            "Browse a user's video feed",
            14.0,
            30.0,
            0.55,
            vec![
                Action::RequestAudioFocus {
                    client: "vine-loop".into(),
                },
                Action::DrawFrames { frames: 360 },
                Action::WriteDataFile {
                    name: "loops.cache".into(),
                    kib: 500,
                },
            ],
        ),
        {
            let mut s = base(
                "Subway Surfers",
                "com.kiloo.subwaysurf",
                "Play fast-paced obstacle game",
                36.0,
                36.0,
                0.6,
                vec![
                    Action::SetVolume {
                        stream: 3,
                        index: 10,
                    },
                    Action::DrawFrames { frames: 1_500 },
                ],
            );
            // "Subway Surfer could not be migrated because it requests
            // that its EGL context persist" (§4).
            s.preserve_egl = true;
            s.textures_mib = 28.0;
            s
        },
        {
            let mut s = base(
                "Facebook",
                "com.facebook.katana",
                "Post comment on news feed",
                28.0,
                34.0,
                0.55,
                vec![
                    Action::PostNotification {
                        id: 5,
                        payload_kib: 14,
                    },
                    Action::WriteDataFile {
                        name: "newsfeed.db".into(),
                        kib: 600,
                    },
                ],
            );
            // "Facebook could not be migrated because it is one of the few
            // apps that is multi-process" (§4).
            s.multi_process = true;
            s.threads = 9;
            s
        },
        base(
            "WhatsApp",
            "com.whatsapp",
            "Send text to friend",
            15.0,
            16.0,
            0.5,
            vec![
                Action::PostNotification {
                    id: 2,
                    payload_kib: 6,
                },
                Action::SetAlarm {
                    operation: "message-retry".into(),
                    in_secs: 60,
                },
                Action::WriteDataFile {
                    name: "msgstore.db".into(),
                    kib: 240,
                },
                Action::Vibrate { ms: 120 },
            ],
        ),
        base(
            "ZEDGE",
            "net.zedge.android",
            "Browse ringtones and select one",
            12.0,
            26.0,
            0.5,
            vec![
                Action::SetVolume {
                    stream: 2,
                    index: 7,
                },
                Action::WriteDataFile {
                    name: "ringtone.mp3".into(),
                    kib: 950,
                },
                think(400),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_eighteen_apps_as_in_table_3() {
        assert_eq!(top_apps().len(), 18);
    }

    #[test]
    fn exactly_facebook_is_multi_process() {
        let multi: Vec<String> = top_apps()
            .into_iter()
            .filter(|s| s.multi_process)
            .map(|s| s.name)
            .collect();
        assert_eq!(multi, vec!["Facebook"]);
    }

    #[test]
    fn exactly_subway_surfers_preserves_egl() {
        let preserved: Vec<String> = top_apps()
            .into_iter()
            .filter(|s| s.preserve_egl)
            .map(|s| s.name)
            .collect();
        assert_eq!(preserved, vec!["Subway Surfers"]);
    }

    #[test]
    fn spec_lookup_by_name() {
        assert!(spec("Candy Crush Saga").is_some());
        assert!(spec("Nonexistent").is_none());
    }

    #[test]
    fn packages_are_unique() {
        let apps = top_apps();
        let mut packages: Vec<&str> = apps.iter().map(|s| s.package.as_str()).collect();
        packages.sort_unstable();
        packages.dedup();
        assert_eq!(packages.len(), apps.len());
    }

    #[test]
    fn workload_descriptions_match_table_3() {
        assert_eq!(
            spec("Candy Crush Saga").unwrap().workload,
            "Play candy-themed puzzle game"
        );
        assert_eq!(spec("Skype").unwrap().workload, "View contact status");
        assert_eq!(
            spec("ZEDGE").unwrap().workload,
            "Browse ringtones and select one"
        );
    }
}
