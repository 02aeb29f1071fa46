//! The Table 2 service registry.
//!
//! One entry per service the paper decorates (or lists as TBD), carrying
//! the decorated AIDL source embedded from `aidl/*.aidl`. The Table 2
//! harness regenerates the paper's table from exactly these sources:
//! `methods` comes from parsing, `LOC` from [`flux_aidl::decoration_loc`],
//! and the SensorService's hand-written native LOC from
//! [`crate::sensor_native`].

use flux_aidl::{compile, parse_one, CompiledInterface};
use std::collections::BTreeMap;
use std::sync::LazyLock;

/// Whether a service fronts hardware (Table 2 splits the listing in two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Manages a hardware device.
    Hardware,
    /// Pure software service.
    Software,
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Table 2 row label, e.g. `"NotificationManagerService"`.
    pub label: &'static str,
    /// ServiceManager name, e.g. `"notification"`.
    pub name: &'static str,
    /// Hardware or software service.
    pub class: ServiceClass,
    /// Decorated AIDL source text.
    pub aidl: &'static str,
    /// For natively implemented services (SensorService), the hand-written
    /// record/replay LOC that replaces AIDL-generated code (§3.2).
    pub native: bool,
}

/// All Table 2 services, in the paper's order (hardware first).
pub const REGISTRY: &[ServiceSpec] = &[
    ServiceSpec {
        label: "AudioService",
        name: "audio",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IAudioService.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "BluetoothService",
        name: "bluetooth",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IBluetooth.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "CameraManagerService",
        name: "media.camera",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/ICameraService.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "ConnectivityManagerService",
        name: "connectivity",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IConnectivityManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "CountryDetectorService",
        name: "country_detector",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/ICountryDetector.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "InputMethodManagerService",
        name: "input_method",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IInputMethodManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "InputManagerService",
        name: "input",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IInputManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "LocationManagerService",
        name: "location",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/ILocationManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "PowerManagerService",
        name: "power",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IPowerManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "SensorService",
        name: "sensorservice",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/ISensorServer.aidl"),
        native: true,
    },
    ServiceSpec {
        label: "SerialService",
        name: "serial",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/ISerialManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "UsbService",
        name: "usb",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IUsbManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "VibratorService",
        name: "vibrator",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IVibratorService.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "WifiService",
        name: "wifi",
        class: ServiceClass::Hardware,
        aidl: include_str!("../aidl/IWifiManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "ActivityManagerService",
        name: "activity",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/IActivityManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "AlarmManagerService",
        name: "alarm",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/IAlarmManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "ClipboardService",
        name: "clipboard",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/IClipboard.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "KeyguardService",
        name: "keyguard",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/IKeyguardService.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "NotificationManagerService",
        name: "notification",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/INotificationManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "NsdService",
        name: "servicediscovery",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/INsdManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "TextServicesManagerService",
        name: "textservices",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/ITextServicesManager.aidl"),
        native: false,
    },
    ServiceSpec {
        label: "UiModeManagerService",
        name: "uimode",
        class: ServiceClass::Software,
        aidl: include_str!("../aidl/IUiModeManager.aidl"),
        native: false,
    },
];

/// A Table 2 row computed from the registry sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Service label.
    pub service: String,
    /// Hardware or software.
    pub class: ServiceClass,
    /// Method count of the interface.
    pub methods: usize,
    /// Decoration LOC, or `None` for TBD (undecorated) services.
    pub loc: Option<usize>,
}

/// Compiles every registry interface, keyed by descriptor.
///
/// This is the moral equivalent of running the extended AIDL compiler over
/// the framework at build time; any invalid decoration fails here.
pub fn compile_all() -> Result<BTreeMap<String, CompiledInterface>, String> {
    let mut out = BTreeMap::new();
    for spec in REGISTRY {
        let iface = parse_one(spec.aidl).map_err(|e| format!("{}: {e}", spec.label))?;
        let compiled = compile(&iface).map_err(|e| format!("{}: {e}", spec.label))?;
        out.insert(compiled.descriptor.clone(), compiled);
    }
    Ok(out)
}

/// The framework's interface table: every registry interface plus the
/// SensorService's hand-written rules, compiled on first use and shared by
/// every device of the process. Like the framework build Flux extends
/// (§3.2), a bad decoration fails here, and every later boot reports it.
static FRAMEWORK: LazyLock<Result<BTreeMap<String, CompiledInterface>, String>> =
    LazyLock::new(|| {
        let mut interfaces = compile_all()?;
        // The SensorService's rules are hand-written, not parsed (§3.2).
        let sensor = crate::sensor_native::compiled();
        interfaces.insert(sensor.descriptor.clone(), sensor);
        Ok(interfaces)
    });

/// The compiled framework table every booted [`crate::ServiceHost`]
/// borrows, keyed by descriptor.
pub fn framework() -> Result<&'static BTreeMap<String, CompiledInterface>, String> {
    FRAMEWORK.as_ref().map_err(Clone::clone)
}

/// Regenerates Table 2 from the registry sources.
pub fn table2() -> Vec<Table2Row> {
    REGISTRY
        .iter()
        .map(|spec| {
            let iface = parse_one(spec.aidl).expect("registry AIDL parses");
            let loc = if spec.native {
                Some(crate::sensor_native::HAND_WRITTEN_LOC)
            } else {
                match flux_aidl::decoration_loc(spec.aidl) {
                    0 => None, // TBD in the paper.
                    n => Some(n),
                }
            };
            Table2Row {
                service: spec.label.to_owned(),
                class: spec.class,
                methods: iface.method_count(),
                loc,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact (methods, LOC) pairs from Table 2 of the paper; `None`
    /// marks the LOC entries the paper lists as TBD.
    const PAPER_TABLE_2: &[(&str, usize, Option<usize>)] = &[
        ("AudioService", 71, Some(150)),
        ("BluetoothService", 202, None),
        ("CameraManagerService", 8, Some(31)),
        ("ConnectivityManagerService", 59, Some(26)),
        ("CountryDetectorService", 3, Some(5)),
        ("InputMethodManagerService", 29, Some(37)),
        ("InputManagerService", 15, Some(11)),
        ("LocationManagerService", 13, Some(15)),
        ("PowerManagerService", 19, Some(14)),
        ("SensorService", 6, Some(94)),
        ("SerialService", 2, None),
        ("UsbService", 19, None),
        ("VibratorService", 4, Some(26)),
        ("WifiService", 47, Some(54)),
        ("ActivityManagerService", 178, Some(130)),
        ("AlarmManagerService", 4, Some(20)),
        ("ClipboardService", 7, Some(6)),
        ("KeyguardService", 22, Some(16)),
        ("NotificationManagerService", 14, Some(34)),
        ("NsdService", 2, Some(3)),
        ("TextServicesManagerService", 9, Some(16)),
        ("UiModeManagerService", 5, Some(9)),
    ];

    #[test]
    fn every_registry_interface_compiles() {
        let compiled = compile_all().expect("all registry interfaces compile");
        assert_eq!(compiled.len(), REGISTRY.len());
    }

    #[test]
    fn table2_method_counts_match_the_paper() {
        let rows = table2();
        for (label, methods, _) in PAPER_TABLE_2 {
            let row = rows
                .iter()
                .find(|r| r.service == *label)
                .unwrap_or_else(|| panic!("missing row {label}"));
            assert_eq!(row.methods, *methods, "{label} method count");
        }
    }

    #[test]
    fn table2_decoration_loc_matches_the_paper() {
        let rows = table2();
        for (label, _, loc) in PAPER_TABLE_2 {
            let row = rows.iter().find(|r| r.service == *label).unwrap();
            assert_eq!(&row.loc, loc, "{label} decoration LOC");
        }
    }

    #[test]
    fn hardware_software_split_matches_the_paper() {
        let rows = table2();
        let hw = rows
            .iter()
            .filter(|r| r.class == ServiceClass::Hardware)
            .count();
        assert_eq!(hw, 14);
        assert_eq!(rows.len() - hw, 8);
    }
}
